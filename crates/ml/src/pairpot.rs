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
//! **The basis by recurrence.** The centres sit on a uniform grid, so
//! neighbouring Gaussians at one distance differ by a factor that is
//! itself geometric: [`RadialBasis`] evaluates all `k` of them from two
//! `exp` per pair (the nearest centre and its forward ratio) and a
//! division, then multiplies outward — every ratio ≤ 1, so tails
//! underflow to zero and never meet `inf`. The `exp` is
//! [`hetflow_sim::num::exp`]. Pairs are evaluated a chunk of up to 64 at
//! a time, one pair per vector lane: a `Tile` holds the chunk's pairs and
//! the basis of the group of eight lanes being walked as a `[k][lane]`
//! array. Both `exp` passes, the backward and forward recurrences (each
//! lane masked to the steps its own nearest centre takes), the
//! derivatives and each pair's `Σ_k φ'_k w_k` run lane-wise, every lane
//! in its own pair's order, so the bits are those of one pair at a time.
//! Only the force scatter and the energy sums, whose bits depend on pair
//! order, go pair by pair. The tile is the one place the basis is
//! evaluated, for training rows and inference alike, and it allocates
//! nothing. Every public kernel here runs its body in the widest clone
//! ([`hetflow_sim::num::dispatch`]).
//!
//! **Normal equations per structure.** A fit's rows depend on the
//! structure and the basis only — not on the fit weights, not on which
//! other structures are in the bag — and a ridge fit reads them only
//! through `XᵀX` and `Xᵀy`. So a [`DesignBlock`] keeps a structure's
//! one energy row and folds its `3n` force rows into their `FᵀF` and
//! `Fᵀt` once, unweighted, and [`PairPotential::fit_blocks`] (the one
//! fit core) sums those over the bag, weighted, and solves the `k × k`
//! system: no stacked design matrix, and a block that many fits bag is
//! multiplied out once. A campaign that refits on mostly unchanged data
//! builds each block once and bags references. Rows go into the sums
//! four per pass and over whole `k`-wide rows of a square accumulator,
//! each upper element still adding its rows in order, so the bits are
//! those of one row per pass over the triangle; the factorization reads
//! nothing below the diagonal. Every accumulator in the inference kernels
//! sees its terms in pair-then-`k` order: [`PairPotential::energies_many`]
//! carries one member per lane and is bit-identical to per-member calls,
//! and `forces_into` to the forces of `energy_forces`.
//!
//! **The ensemble mean is a model.** Energies and forces are linear in
//! the weights, so the mean of several members' predictions is the
//! prediction of one model with their mean weights
//! ([`PairPotential::mean`]) — exact up to the order of the sums, about
//! 1e-14 relative. Scoring an ensemble's mean force (Fig. 7a's metric)
//! runs one force kernel, not one per member.

use crate::linalg::{add_scaled_row, add_scaled_rows, LinalgError, Matrix};
use hetflow_chem::{EnergyModel, Structure, Vec3};
use hetflow_sim::num::{self, dispatch, exp};
use std::array::from_fn;

/// Largest basis [`RadialBasis`] accepts: the rows of a [`Tile`].
const MAX_BASIS: usize = 32;

/// Pairs per [`Tile`], one per lane.
const CHUNK: usize = 64;

/// Lanes evaluated together (one AVX-512 register): a tile's live pairs
/// are covered by whole groups, and the lanes of the last group past
/// them are dead.
const LANES: usize = 8;
const GROUPS: usize = CHUNK / LANES;

/// One group's lanes.
type Lanes = [f64; LANES];

/// Gaussian radial basis on pair distances, `φ_k(r) = exp(-a (r -
/// c_k)²)` with `a = 1/(2w²)` and centres `c_k = r_min + kΔ`.
#[derive(Clone, Debug, PartialEq)]
pub struct RadialBasis {
    centers: Vec<f64>,
    inv_step: f64,
    /// `a = 1/(2w²)`.
    inv_two_w2: f64,
    /// `2aΔ` and `aΔ²`: `φ_{j+1}/φ_j = exp(2aΔ d_j - aΔ²)`.
    two_a_step: f64,
    a_step2: f64,
    /// `exp(-2aΔ²)`, the ratio of successive ratios.
    q: f64,
}

impl RadialBasis {
    /// `k` centers uniformly on `[r_min, r_max]`, width `width`.
    pub(crate) fn new(k: usize, r_min: f64, r_max: f64, width: f64) -> Self {
        assert!((2..=MAX_BASIS).contains(&k) && r_max > r_min && width > 0.0);
        let centers = (0..k)
            .map(|i| r_min + (r_max - r_min) * i as f64 / (k - 1) as f64)
            .collect();
        let step = (r_max - r_min) / (k - 1) as f64;
        let a = 1.0 / (2.0 * width * width);
        RadialBasis {
            centers,
            inv_step: 1.0 / step,
            inv_two_w2: a,
            two_a_step: 2.0 * a * step,
            a_step2: a * step * step,
            q: exp(-2.0 * a * step * step),
        }
    }

    /// Default basis covering the cluster interaction range.
    pub fn default_for_clusters() -> Self {
        RadialBasis::new(24, 0.6, 3.2, 0.18)
    }

    /// Basis size.
    pub(crate) fn dim(&self) -> usize {
        self.centers.len()
    }

    /// The centres, then zeros to `MAX_BASIS`: indexing it by a lane's
    /// nearest centre needs no bounds check, so the lookup vectorizes.
    #[inline(always)]
    fn grid(&self) -> [f64; MAX_BASIS] {
        let mut grid = [0.0; MAX_BASIS];
        grid[..self.dim()].copy_from_slice(&self.centers);
        grid
    }

    /// The nearest centre `s` to `r` and `d_s = r − c_s`, `s` clamped to
    /// the grid; `grid` is [`RadialBasis::grid`].
    #[inline(always)]
    fn nearest(&self, grid: &[f64; MAX_BASIS], r: f64) -> (usize, f64) {
        // `f64::round` is a libm call on baseline x86-64: truncate
        // `t + 0.5` after the clamp (NaN truncates to 0).
        let t = ((r - grid[0]) * self.inv_step).clamp(0.0, (self.dim() - 1) as f64);
        let s = (t + 0.5) as i32 as usize % MAX_BASIS;
        (s, r - grid[s])
    }

    /// Calls `f(tile, g)` for each group of lanes of each chunk of `s`'s
    /// pairs, in [`Structure::pairs`] order, once the group's basis is in
    /// `tile`. Its callers run it in their kernel's clone, where `f`'s
    /// lane-wise loops vectorize too.
    #[inline(always)]
    fn for_each_tile(&self, s: &Structure, f: impl FnMut(&Tile, usize)) {
        self.for_each_tile_of(s.pairs(), &mut Tile::new(), f);
    }

    /// [`RadialBasis::for_each_tile`] over any `pairs`, through `tile`.
    #[inline(always)]
    fn for_each_tile_of(
        &self,
        mut pairs: impl Iterator<Item = (usize, usize, Vec3, f64)>,
        tile: &mut Tile,
        mut f: impl FnMut(&Tile, usize),
    ) {
        while tile.fill(&mut pairs) > 0 {
            let seeds = self.seeds(tile);
            for g in 0..tile.groups() {
                self.walk_lanes(tile, &seeds, g);
                f(tile, g);
            }
            if tile.n < CHUNK {
                return;
            }
        }
    }

    /// Each live pair's nearest centre `s`, `φ_s = exp(-a d_s²)` and `g_s
    /// = exp(2aΔ d_s - aΔ²)`, the `exp`s in two passes over the chunk.
    #[inline(always)]
    fn seeds(&self, tile: &Tile) -> Seeds {
        let grid = self.grid();
        let mut seeds = Seeds {
            near: [[0; LANES]; GROUPS],
            phi_s: [[0.0; LANES]; GROUPS],
            g_s: [[0.0; LANES]; GROUPS],
        };
        for g in 0..tile.groups() {
            for l in 0..LANES {
                let (s, d) = self.nearest(&grid, tile.r[g][l]);
                seeds.near[g][l] = s as i32;
                seeds.phi_s[g][l] = -d * d * self.inv_two_w2;
                seeds.g_s[g][l] = self.two_a_step * d - self.a_step2;
            }
        }
        num::exp_in_place(&mut seeds.phi_s.as_flattened_mut()[..tile.n]);
        num::exp_in_place(&mut seeds.g_s.as_flattened_mut()[..tile.n]);
        seeds
    }

    /// Group `g`'s basis into `tile.phi`, one pair per lane, each lane
    /// walking out from its own `s`: forward `φ_{j+1} = φ_j·g` with `g ←
    /// g·q`, backward `φ_{j-1} = φ_j·h` with `h ← h·q` from `h_s = q/g_s`.
    /// Since `|d_s| ≤ Δ/2` inside the grid, `g_s, h_s ≤ 1` and only
    /// shrink. Both passes step every lane through every `kk`, and a
    /// lane's state moves only where `kk > s` (forward) or `kk < s`
    /// (backward): the same operations in the same order as one pair at a
    /// time. The masks select by integer bits; an `if` on `f64` lanes
    /// scalarizes.
    #[inline(always)]
    fn walk_lanes(&self, tile: &mut Tile, seeds: &Seeds, g: usize) {
        let s = seeds.near[g];
        let (mut p, mut h) = (seeds.phi_s[g], seeds.g_s[g].map(|g_s| self.q / g_s));
        for kk in (0..self.dim()).rev() {
            let row = &mut tile.phi[kk];
            for l in 0..LANES {
                let on = mask((kk as i32) < s[l]);
                p[l] = select(on, p[l] * h[l], p[l]);
                h[l] = select(on, h[l] * self.q, h[l]);
                row[l] = p[l];
            }
        }
        let (mut p, mut gr) = (seeds.phi_s[g], seeds.g_s[g]);
        for kk in 0..self.dim() {
            let row = &mut tile.phi[kk];
            for l in 0..LANES {
                let on = mask((kk as i32) > s[l]);
                p[l] = select(on, p[l] * gr[l], p[l]);
                gr[l] = select(on, gr[l] * self.q, gr[l]);
                row[l] = select(mask((kk as i32) >= s[l]), p[l], row[l]);
            }
        }
    }
}

/// Where each lane of a chunk starts its recurrence: its nearest centre,
/// `φ` there and the first forward ratio.
struct Seeds {
    near: [[i32; LANES]; GROUPS],
    phi_s: [Lanes; GROUPS],
    g_s: [Lanes; GROUPS],
}

/// All ones where `on`, zero elsewhere: a lane mask for [`select`].
#[inline(always)]
fn mask(on: bool) -> u64 {
    0u64.wrapping_sub(u64::from(on))
}

/// `a`'s bits where `m` is set, `b`'s elsewhere.
#[inline(always)]
fn select(m: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// Up to `CHUNK` pairs, one pair per lane, and the basis of one group of
/// them: pair `c` sits in lane `c % LANES` of group `c / LANES`. Lanes
/// from `n` on are dead: they hold what an earlier chunk left, and no
/// output reads them.
struct Tile {
    n: usize,
    /// Each pair's atoms `(i, j)`, `i < j`.
    ij: [(usize, usize); CHUNK],
    /// The separation vector by component, and its length `r`.
    dvec: [[Lanes; GROUPS]; 3],
    r: [Lanes; GROUPS],
    /// `phi[kk][l] = φ_kk(r)` for lane `l` of the group last walked.
    phi: [Lanes; MAX_BASIS],
}

impl Tile {
    #[inline(always)]
    fn new() -> Self {
        Tile {
            n: 0,
            ij: [(0, 0); CHUNK],
            dvec: [[[0.0; LANES]; GROUPS]; 3],
            r: [[0.0; LANES]; GROUPS],
            phi: [[0.0; LANES]; MAX_BASIS],
        }
    }

    /// Takes the next `CHUNK` pairs (fewer at the end) and returns how
    /// many.
    #[inline(always)]
    fn fill(&mut self, pairs: &mut impl Iterator<Item = (usize, usize, Vec3, f64)>) -> usize {
        self.n = 0;
        for (c, (i, j, dvec, r)) in pairs.take(CHUNK).enumerate() {
            let (g, l) = (c / LANES, c % LANES);
            self.ij[c] = (i, j);
            for (comp, x) in self.dvec.iter_mut().zip(dvec) {
                comp[g][l] = x;
            }
            self.r[g][l] = r;
            self.n = c + 1;
        }
        self.n
    }

    /// Groups holding live pairs.
    #[inline(always)]
    fn groups(&self) -> usize {
        self.n.div_ceil(LANES)
    }

    /// Live pairs in group `g`.
    #[inline(always)]
    fn live(&self, g: usize) -> usize {
        (self.n - g * LANES).min(LANES)
    }

    /// `φ'_kk` of group `g`'s lanes, `-(r − c_kk)·2a·φ_kk`.
    #[inline(always)]
    fn dphi(&self, basis: &RadialBasis, kk: usize, g: usize) -> Lanes {
        let (c, two_a) = (basis.centers[kk], 2.0 * basis.inv_two_w2);
        from_fn(|l| -((self.r[g][l] - c) * two_a) * self.phi[kk][l])
    }

    /// `Σ_k φ'_k w_k` of group `g`'s lanes, each lane summing in `k` order.
    #[inline(always)]
    fn de(&self, basis: &RadialBasis, weights: &[f64], g: usize) -> Lanes {
        let mut de = [0.0; LANES];
        for (kk, &wk) in weights.iter().enumerate() {
            let dp = self.dphi(basis, kk, g);
            for l in 0..LANES {
                de[l] += dp[l] * wk;
            }
        }
        de
    }

    /// `erow[k] += φ_k` for each live pair of group `g`, in pair order.
    #[inline(always)]
    fn add_energy_row(&self, g: usize, erow: &mut [f64]) {
        for (e, row) in erow.iter_mut().zip(&self.phi) {
            for &p in &row[..self.live(g)] {
                *e += p;
            }
        }
    }

    /// `e + Σ_k φ_k w_k` for pair `c` of the group last walked, added in
    /// `k` order.
    #[inline(always)]
    fn add_energy(&self, c: usize, weights: &[f64], mut e: f64) -> f64 {
        for (row, wk) in self.phi.iter().zip(weights) {
            e += row[c % LANES] * wk;
        }
        e
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
        let (energy, forces) = if with_forces {
            let (e, f) = model.energy_forces(s);
            (e, Some(f))
        } else {
            (model.energy(s), None)
        };
        LabelledStructure { structure: s.clone(), energy, forces }
    }
}

/// What one labelled structure contributes to a fit in a given basis,
/// unweighted: the energy row `e = Σ_pairs φ_k(r)` and its label, and —
/// when force labels are present — the normal-equation terms of its
/// force rows `F_{iα} = -Σ_j φ'_k(r_ij) (x_iα - x_jα)/r_ij`, `FᵀF` and
/// `Fᵀt`. The rows themselves are folded in once and dropped.
#[derive(Clone, Debug)]
pub struct DesignBlock {
    dim: usize,
    energy: f64,
    /// The energy row (`dim` values); then, with force labels, `FᵀF`'s
    /// upper triangle packed row by row (`dim(dim+1)/2`) and `Fᵀt`
    /// (`dim`).
    values: Vec<f64>,
}

impl DesignBlock {
    /// Evaluates `basis` over the pairs of `ls.structure`.
    pub fn new(ls: &LabelledStructure, basis: &RadialBasis) -> Self {
        dispatch(
            #[inline(always)]
            || DesignBlock::new_body(ls, basis),
        )
    }

    /// [`DesignBlock::new`] undispatched.
    #[inline(always)]
    fn new_body(ls: &LabelledStructure, basis: &RadialBasis) -> Self {
        let k = basis.dim();
        let n = ls.structure.n_atoms();
        let forces = ls.forces.as_deref().unwrap_or_default();
        assert!(forces.is_empty() || forces.len() == n, "one force label per atom");
        let mut erow = [0.0; MAX_BASIS];
        if forces.is_empty() {
            basis.for_each_tile(
                &ls.structure,
                #[inline(always)]
                |tile, g| tile.add_energy_row(g, &mut erow[..k]),
            );
            return DesignBlock { dim: k, energy: ls.energy, values: erow[..k].to_vec() };
        }
        // Force rows `kp` apart, padded to whole lane groups; each element
        // takes its pairs' terms in pair order.
        let kp = k.next_multiple_of(LANES);
        let mut frows = vec![0.0; 3 * n * kp];
        basis.for_each_tile(
            &ls.structure,
            #[inline(always)]
            |tile, g| {
                tile.add_energy_row(g, &mut erow[..k]);
                // The group's `φ'_k`, lane-wise, then one row per pair.
                let mut dphi = [[0.0; MAX_BASIS]; LANES];
                for kk in 0..k {
                    let dp = tile.dphi(basis, kk, g);
                    for (row, dp) in dphi.iter_mut().zip(dp) {
                        row[kk] = dp;
                    }
                }
                let pairs = tile.ij[g * LANES..][..tile.live(g)].iter().zip(&dphi);
                for (l, (&(i, j), dphi)) in pairs.enumerate() {
                    for alpha in 0..3 {
                        let u = tile.dvec[alpha][g][l] / tile.r[g][l];
                        let (below, fj) = frows.split_at_mut((j * 3 + alpha) * kp);
                        let fi = &mut below[(i * 3 + alpha) * kp..][..kp];
                        let rows = fi.chunks_exact_mut(LANES).zip(fj.chunks_exact_mut(LANES));
                        for ((fi, fj), dp) in rows.zip(dphi.chunks_exact(LANES)) {
                            // Both rows are read before either is written:
                            // the loads and stores vectorize without an
                            // alias check.
                            let contrib: Lanes = from_fn(|l| -dp[l] * u);
                            let to_i: Lanes = from_fn(|l| fi[l] + contrib[l]);
                            let to_j: Lanes = from_fn(|l| fj[l] - contrib[l]);
                            fi.copy_from_slice(&to_i);
                            fj.copy_from_slice(&to_j);
                        }
                    }
                }
            },
        );
        // `FᵀF` in whole rows `kp` apart, of which the upper triangle is
        // kept.
        let (mut ftf, mut rhs) = ([0.0; MAX_BASIS * MAX_BASIS], [0.0; MAX_BASIS]);
        let targets = forces.as_flattened();
        let row = |r: usize| (&frows[r * kp..][..kp], targets[r]);
        fold_rows(&mut ftf, kp, &mut rhs[..k], targets.len(), row, 1.0);
        let mut values = Vec::with_capacity(k + packed_len(k) + k);
        values.extend_from_slice(&erow[..k]);
        for (i, row) in ftf.chunks_exact(kp).take(k).enumerate() {
            values.extend_from_slice(&row[i..k]);
        }
        values.extend_from_slice(&rhs[..k]);
        DesignBlock { dim: k, energy: ls.energy, values }
    }
}

/// Adds `w·x xᵀ` to `acc`, whose rows sit `stride` apart, and `w·t·x` to
/// `rhs`, for each of the `n` rows `(x, t) = row(r)`, `x` at least
/// `stride` long: four rows per pass, then the `n % 4` left over one at a
/// time, each over the whole of `acc`'s first `rhs.len()` rows. Every
/// element adds its rows' products in row order, a zero coefficient
/// skipped ([`add_scaled_rows`]), so each upper element gets the bits of
/// one row per pass over the triangle. The strict lower triangle takes
/// the mirror products, which no reader reads.
#[inline(always)]
fn fold_rows<'a>(
    acc: &mut [f64],
    stride: usize,
    rhs: &mut [f64],
    n: usize,
    row: impl Fn(usize) -> (&'a [f64], f64),
    w: f64,
) {
    let k = rhs.len();
    let quads = n / 4 * 4;
    for r in (0..quads).step_by(4) {
        let quad: [(&[f64], f64); 4] = from_fn(|q| row(r + q));
        let (x, t) = (quad.map(|(x, _)| x), quad.map(|(_, t)| t));
        for (i, out) in acc.chunks_exact_mut(stride).take(k).enumerate() {
            add_scaled_rows(out, x.map(|x| w * x[i]), x);
        }
        add_scaled_rows(rhs, t.map(|t| w * t), x);
    }
    for r in quads..n {
        let (x, t) = row(r);
        for (i, out) in acc.chunks_exact_mut(stride).take(k).enumerate() {
            add_scaled_row(out, w * x[i], x);
        }
        add_scaled_row(rhs, w * t, x);
    }
}

/// Length of a `k × k` upper triangle packed row by row.
fn packed_len(k: usize) -> usize {
    k * (k + 1) / 2
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
    /// number of fits, and a repeated one counts twice): sums the normal
    /// equations `G = Σ (ew·e eᵀ + fw·FᵀF)` and `b = Σ (ew·t_e·e +
    /// fw·Fᵀt)` over the blocks in the order given, adds the ridge term
    /// and solves `G w = b`.
    pub fn fit_blocks(
        blocks: &[&DesignBlock],
        basis: RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        assert!(!blocks.is_empty(), "cannot fit on empty data");
        dispatch(
            #[inline(always)]
            move || PairPotential::fit_blocks_body(blocks, basis, params),
        )
    }

    /// [`PairPotential::fit_blocks`] undispatched.
    #[inline(always)]
    fn fit_blocks_body(
        blocks: &[&DesignBlock],
        basis: RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        let k = basis.dim();
        let (ew, fw) = (params.energy_weight, params.force_weight);
        // Whole rows are summed, but only the upper triangle counts: the
        // factorization reads no other.
        let mut gram = vec![0.0; k * k];
        let mut rhs = vec![0.0; k];
        // Energy rows wait here, up to four, and go in ahead of the next
        // force block's terms, so each element keeps bag order.
        let mut held: [(&[f64], f64); 4] = [(&[], 0.0); 4];
        let mut n_held = 0;
        for b in blocks {
            assert_eq!(b.dim, k, "block/basis dimension mismatch");
            let (erow, normal) = b.values.split_at(k);
            held[n_held] = (erow, b.energy);
            n_held += 1;
            if n_held == 4 || !normal.is_empty() {
                fold_rows(&mut gram, k, &mut rhs, n_held, |r| held[r], ew);
                n_held = 0;
            }
            if normal.is_empty() {
                continue;
            }
            let (upper, ft) = normal.split_at(packed_len(k));
            let mut at = 0;
            for (i, &f) in ft.iter().enumerate() {
                for (g, &v) in gram[i * k + i..][..k - i].iter_mut().zip(&upper[at..at + k - i]) {
                    *g += fw * v;
                }
                at += k - i;
                rhs[i] += fw * f;
            }
        }
        fold_rows(&mut gram, k, &mut rhs, n_held, |r| held[r], ew);
        // No intercept: forces fix the gauge; an energy offset would be
        // unidentifiable from forces alone. The jitter keeps the factor
        // defined at lambda = 0, as `Ridge` does.
        let mut gram = Matrix::from_vec(k, k, gram);
        gram.add_diag(params.lambda.max(1e-10));
        let w = gram.cholesky()?.solve_matrix(Matrix::from_vec(k, 1, rhs));
        let weights = (0..k).map(|i| w[(i, 0)]).collect();
        Ok(PairPotential { basis, weights })
    }

    /// Weight vector (basis coefficients).
    #[cfg(test)]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The basis all of `members` evaluate, if it is one and the same.
    fn shared_basis(members: &[PairPotential]) -> Option<&RadialBasis> {
        let basis = &members.first()?.basis;
        members.iter().all(|m| m.basis == *basis).then_some(basis)
    }

    /// The model whose weights are the mean of `members`' weights, or
    /// `None` unless there are members and they share one basis. The
    /// model is linear in its weights, so its energy and forces are the
    /// members' mean energy and forces up to the order of the sums: an
    /// ensemble's mean prediction costs one model's.
    pub fn mean(members: &[PairPotential]) -> Option<PairPotential> {
        let basis = PairPotential::shared_basis(members)?;
        let n = members.len() as f64;
        let weights = (0..basis.dim())
            .map(|k| members.iter().fold(0.0, |acc, m| acc + m.weights[k]) / n)
            .collect();
        Some(PairPotential { basis: basis.clone(), weights })
    }

    /// `out[m][b]`, member `m`'s energy of `batch[b]`, from one basis
    /// evaluation per pair and `LANES` members when the members share a
    /// basis (an ensemble's do): bit-identical to [`EnergyModel::energy`]
    /// per member and structure.
    pub fn energies_many(members: &[PairPotential], batch: &[Structure]) -> Vec<Vec<f64>> {
        let Some(basis) = PairPotential::shared_basis(members) else {
            return members.iter().map(|m| batch.iter().map(|s| m.energy(s)).collect()).collect();
        };
        dispatch(
            #[inline(always)]
            || PairPotential::shared_energies(basis, members, batch),
        )
    }

    /// [`PairPotential::energies_many`] undispatched, for members that
    /// share `basis`: one member per lane, up to `LANES` at a time, their
    /// weights transposed to `[k][lane]`. Each lane adds its own member's
    /// `φ_k w_k` in pair-then-`k` order, as [`Tile::add_energy`] does.
    #[inline(always)]
    fn shared_energies(
        basis: &RadialBasis,
        members: &[PairPotential],
        batch: &[Structure],
    ) -> Vec<Vec<f64>> {
        let k = basis.dim();
        let mut out = vec![vec![0.0; batch.len()]; members.len()];
        for (group, out) in members.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let mut w = [[0.0; LANES]; MAX_BASIS];
            for (l, member) in group.iter().enumerate() {
                for (row, &wk) in w.iter_mut().zip(&member.weights) {
                    row[l] = wk;
                }
            }
            for (b, s) in batch.iter().enumerate() {
                let mut e = [0.0; LANES];
                basis.for_each_tile(
                    s,
                    #[inline(always)]
                    |tile, g| {
                        for l in 0..tile.live(g) {
                            for (row, w) in tile.phi[..k].iter().zip(&w) {
                                for m in 0..LANES {
                                    e[m] += row[l] * w[m];
                                }
                            }
                        }
                    },
                );
                for (energies, e) in out.iter_mut().zip(e) {
                    energies[b] = e;
                }
            }
        }
        out
    }
}

impl PairPotential {
    /// The one loop body of `energy_forces` and `forces_into`: overwrites
    /// `forces` and returns the energy, summed only when `ENERGY` is set.
    /// The forces never read the energy, so both get the same bits.
    #[inline(always)]
    fn accumulate<const ENERGY: bool>(&self, s: &Structure, forces: &mut [Vec3]) -> f64 {
        let mut energy = 0.0;
        forces.fill([0.0; 3]);
        self.basis.for_each_tile(
            s,
            #[inline(always)]
            |tile, g| {
                let de = tile.de(&self.basis, &self.weights, g);
                let scale: Lanes = from_fn(|l| -de[l] / tile.r[g][l]);
                let f: [Lanes; 3] = from_fn(|a| from_fn(|l| scale[l] * tile.dvec[a][g][l]));
                for (l, &(i, j)) in tile.ij[g * LANES..][..tile.live(g)].iter().enumerate() {
                    if ENERGY {
                        energy = tile.add_energy(g * LANES + l, &self.weights, energy);
                    }
                    for alpha in 0..3 {
                        forces[i][alpha] += f[alpha][l];
                        forces[j][alpha] -= f[alpha][l];
                    }
                }
            },
        );
        energy
    }
}

impl EnergyModel for PairPotential {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        let mut forces = vec![[0.0; 3]; s.n_atoms()];
        let energy = dispatch(
            #[inline(always)]
            || self.accumulate::<true>(s, &mut forces),
        );
        (energy, forces)
    }

    fn forces_into(&self, s: &Structure, forces: &mut [Vec3]) {
        dispatch(
            #[inline(always)]
            || self.accumulate::<false>(s, forces),
        );
    }

    fn energy(&self, s: &Structure) -> f64 {
        dispatch(
            #[inline(always)]
            || {
                let mut energy = 0.0;
                self.basis.for_each_tile(
                    s,
                    #[inline(always)]
                    |tile, g| {
                        for c in g * LANES..g * LANES + tile.live(g) {
                            energy = tile.add_energy(c, &self.weights, energy);
                        }
                    },
                );
                energy
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_chem::{
        force_rmsd, jittered_cluster, numerical_forces, pretraining_set, MorsePes,
    };
    use hetflow_sim::num::{run_on, supported_arms};
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    /// The references. `values`/`eval` evaluate one pair's basis, its two
    /// `exp` on their own and its recurrence (`walk`) and derivatives
    /// (`derivs`) one pair at a time: what a [`Tile`]'s lanes must match
    /// bit for bit. `exp_values`/`exp_derivs` give each centre its
    /// own `exp`: the accuracy reference the recurrence must stay
    /// within 1e-14 of. `design` is the stacked-row builder as it stood
    /// when every fit evaluated the basis for itself: the rows whose
    /// normal equations a block's fit must agree with. `energy_forces` is
    /// the two-pass energy/force kernel, values and derivatives in
    /// separate passes, now over `eval`: what the kernels
    /// must match bit for bit. `block_values` and `fit_blocks` fold
    /// one row per pass, as they stood before rows went in four at a
    /// time: what blocks and fits must match bit for bit.
    mod reference {
        use super::*;

        pub fn values(b: &RadialBasis, r: f64, phi: &mut [f64]) {
            let (s, d) = b.nearest(&b.grid(), r);
            let (phi_s, g_s) = (exp(-d * d * b.inv_two_w2), exp(b.two_a_step * d - b.a_step2));
            walk(b, s, phi_s, g_s, phi);
        }

        /// `φ_k(r)` for every centre into `phi[..k]`, from `φ_s` and `g_s`
        /// at the nearest centre `s`: forward `φ_{j+1} = φ_j·g` with `g ←
        /// g·q`, backward `φ_{j-1} = φ_j·h` with `h ← h·q` from `h_s =
        /// q/g_s`.
        fn walk(b: &RadialBasis, s: usize, phi_s: f64, g_s: f64, phi: &mut [f64]) {
            let (back, fwd) = phi[..b.dim()].split_at_mut(s);
            let (mut p, mut g) = (phi_s, g_s);
            fwd[0] = phi_s;
            for v in &mut fwd[1..] {
                p *= g;
                g *= b.q;
                *v = p;
            }
            let (mut p, mut h) = (phi_s, b.q / g_s);
            for v in back.iter_mut().rev() {
                p *= h;
                h *= b.q;
                *v = p;
            }
        }

        /// `φ'_k(r) = -(d_k/w²)·φ_k = -2a·d_k·φ_k` into `dphi[..k]`, from
        /// `phi = φ_k(r)`.
        fn derivs(b: &RadialBasis, r: f64, phi: &[f64], dphi: &mut [f64]) {
            let two_a = 2.0 * b.inv_two_w2;
            for ((dp, p), &c) in dphi.iter_mut().zip(phi).zip(&b.centers) {
                *dp = -((r - c) * two_a) * p;
            }
        }

        pub fn eval(b: &RadialBasis, r: f64, phi: &mut [f64], dphi: &mut [f64]) {
            values(b, r, phi);
            derivs(b, r, &phi[..b.dim()], dphi);
        }

        pub fn block_values(ls: &LabelledStructure, basis: &RadialBasis) -> Vec<f64> {
            let k = basis.dim();
            let Some(forces) = &ls.forces else {
                return DesignBlock::new(ls, basis).values;
            };
            let n = ls.structure.n_atoms();
            let (mut phi, mut dphi) = ([0.0; MAX_BASIS], [0.0; MAX_BASIS]);
            let mut values = vec![0.0; k + packed_len(k) + k];
            let mut frows = vec![0.0; 3 * n * k];
            for (i, j, dvec, r) in ls.structure.pairs() {
                eval(basis, r, &mut phi, &mut dphi);
                for (e, p) in values[..k].iter_mut().zip(&phi) {
                    *e += p;
                }
                for alpha in 0..3 {
                    let u = dvec[alpha] / r;
                    for (kk, dp) in dphi[..k].iter().enumerate() {
                        let contrib = -dp * u;
                        frows[(i * 3 + alpha) * k + kk] += contrib;
                        frows[(j * 3 + alpha) * k + kk] -= contrib;
                    }
                }
            }
            let (head, rhs) = values.split_at_mut(k + packed_len(k));
            let upper = &mut head[k..];
            for (f, &t) in frows.chunks_exact(k).zip(forces.iter().flatten()) {
                let mut at = 0;
                for (i, &a) in f.iter().enumerate() {
                    for (g, &b) in upper[at..at + k - i].iter_mut().zip(&f[i..]) {
                        *g += a * b;
                    }
                    at += k - i;
                    rhs[i] += a * t;
                }
            }
            values
        }

        pub fn fit_blocks(
            blocks: &[&DesignBlock],
            basis: RadialBasis,
            params: PairPotParams,
        ) -> Result<PairPotential, LinalgError> {
            let k = basis.dim();
            let (ew, fw) = (params.energy_weight, params.force_weight);
            let mut gram = Matrix::zeros(k, k);
            let mut rhs = Matrix::zeros(k, 1);
            for b in blocks {
                let (erow, normal) = b.values.split_at(k);
                let te = ew * b.energy;
                for (i, &e) in erow.iter().enumerate() {
                    let a = ew * e;
                    for (g, &e) in gram.row_mut(i)[i..].iter_mut().zip(&erow[i..]) {
                        *g += a * e;
                    }
                    rhs[(i, 0)] += te * e;
                }
                if normal.is_empty() {
                    continue;
                }
                let (upper, ft) = normal.split_at(packed_len(k));
                let mut at = 0;
                for (i, &f) in ft.iter().enumerate() {
                    for (g, &v) in gram.row_mut(i)[i..].iter_mut().zip(&upper[at..at + k - i]) {
                        *g += fw * v;
                    }
                    at += k - i;
                    rhs[(i, 0)] += fw * f;
                }
            }
            gram.add_diag(params.lambda.max(1e-10));
            let w = gram.cholesky()?.solve_matrix(rhs);
            let weights = (0..k).map(|i| w[(i, 0)]).collect();
            Ok(PairPotential { basis, weights })
        }

        #[expect(clippy::disallowed_methods, reason = "libm is the accuracy oracle")]
        pub fn exp_values(b: &RadialBasis, r: f64, out: &mut [f64]) {
            for (o, &c) in out.iter_mut().zip(&b.centers) {
                let d = r - c;
                *o = (-d * d * b.inv_two_w2).exp();
            }
        }

        #[expect(clippy::disallowed_methods, reason = "libm is the accuracy oracle")]
        pub fn exp_derivs(b: &RadialBasis, r: f64, out: &mut [f64]) {
            for (o, &c) in out.iter_mut().zip(&b.centers) {
                let d = r - c;
                *o = -(2.0 * d * b.inv_two_w2) * (-d * d * b.inv_two_w2).exp();
            }
        }

        fn dphi(b: &RadialBasis, r: f64, out: &mut [f64]) {
            eval(b, r, &mut [0.0; MAX_BASIS], out);
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
                        dphi(basis, r, &mut phi);
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
                dphi(&m.basis, r, &mut phi);
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

    /// Bases of 2, 9, 24 and 32 centres.
    fn test_basis(which: usize) -> RadialBasis {
        match which {
            0 => RadialBasis::new(2, 0.6, 3.2, 0.9),
            1 => RadialBasis::new(9, 0.5, 3.0, 0.25),
            2 => RadialBasis::default_for_clusters(),
            _ => RadialBasis::new(MAX_BASIS, 0.6, 3.2, 0.12),
        }
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

    /// How far the summed normal equations may move a fit's predictions
    /// from solving the stacked rows' own, relative (see
    /// [`max_rel_diffs`]). Over 15 000 fits of the property below (5 000
    /// cases, λ ∈ {1e-6, 1e-3}) the largest was 2.1e-9 on energies and
    /// 2.7e-9 on forces; the 192 fits it runs read 5.3e-10 and 4.1e-10.
    const FIT_ENERGY_REL: f64 = 1e-7;
    const FIT_FORCE_REL: f64 = 1e-7;

    /// The fit [`reference::design`]'s stacked rows give when their own
    /// normal equations are solved.
    fn stacked_fit(
        data: &[LabelledStructure],
        basis: &RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        let (x, y) = reference::design(data, basis, params);
        let mut gram = x.gram();
        gram.add_diag(params.lambda.max(1e-10));
        let w = gram.cholesky()?.solve_matrix(x.t_matmul(&y));
        let weights = (0..basis.dim()).map(|i| w[(i, 0)]).collect();
        Ok(PairPotential { basis: basis.clone(), weights })
    }

    /// `max |a − b| / max |b|` over the energies two models predict on
    /// `data`'s structures, then over the force components on those with
    /// force labels: forces the fit never saw are free to be near zero,
    /// where a relative difference means nothing.
    fn max_rel_diffs(
        got: &PairPotential,
        want: &PairPotential,
        data: &[LabelledStructure],
    ) -> (f64, f64) {
        let (mut e_diff, mut e_scale, mut f_diff, mut f_scale) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ls in data {
            let (e_got, f_got) = got.energy_forces(&ls.structure);
            let (e_want, f_want) = want.energy_forces(&ls.structure);
            e_diff = e_diff.max((e_got - e_want).abs());
            e_scale = e_scale.max(e_want.abs());
            if ls.forces.is_none() {
                continue;
            }
            for (p, q) in f_got.as_flattened().iter().zip(f_want.as_flattened()) {
                f_diff = f_diff.max((p - q).abs());
                f_scale = f_scale.max(q.abs());
            }
        }
        (e_diff / e_scale.max(f64::MIN_POSITIVE), f_diff / f_scale.max(f64::MIN_POSITIVE))
    }

    proptest! {
        #[test]
        fn normal_equation_fits_agree_with_solving_the_stacked_rows(
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
                let refs: Vec<&DesignBlock> = bag.iter().map(|&i| &blocks[i]).collect();
                let cached = PairPotential::fit_blocks(&refs, basis.clone(), params);
                let fresh = PairPotential::fit(&bagged, basis.clone(), params);
                prop_assert_eq!(
                    cached.as_ref().map(|m| bits(m.weights())),
                    fresh.as_ref().map(|m| bits(m.weights()))
                );
                let (got, want) = (cached.unwrap(), stacked_fit(&bagged, &basis, params).unwrap());
                let (e_rel, f_rel) = max_rel_diffs(&got, &want, &bagged);
                prop_assert!(e_rel <= FIT_ENERGY_REL, "energies {}", e_rel);
                prop_assert!(f_rel <= FIT_FORCE_REL, "forces {}", f_rel);
            }
        }

        #[test]
        fn eval_kernel_bit_identical_to_two_pass_reference(
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
            let mut f_only = vec![[f64::NAN; 3]; atoms];
            model.forces_into(&s, &mut f_only);
            prop_assert_eq!(bits(f_only.as_flattened()), bits(f.as_flattened()));
        }

        #[test]
        fn lane_tile_bit_identical_to_per_pair_reference_on_every_arm(
            seed in 0u64..500,
            which in 0usize..4,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let basis = test_basis(which);
            let k = basis.dim();
            let weights: Vec<f64> = (0..k).map(|_| rng.standard_normal()).collect();
            let (first, last) = (basis.centers[0], basis.centers[k - 1]);
            // Below the first centre (`s` clamps to 0), on the grid, beyond
            // the last (`s` clamps to k − 1), and stretched past 40 Å,
            // where `φ_s`'s argument is below −512: a chunk holding one
            // takes `exp`'s cold path.
            let pairs: Vec<(usize, usize, Vec3, f64)> = (0..130)
                .map(|c| {
                    let r = match rng.below(8) {
                        0 => first * rng.unit(),
                        1 => last + 2.0 * rng.unit(),
                        2 => 40.0 + 10.0 * rng.unit(),
                        _ => first + (last - first) * rng.unit(),
                    };
                    let dvec = [0.6 * r, -0.8 * r * rng.unit(), r * rng.standard_normal()];
                    (c % 9, 9 + c % 4, dvec, r)
                })
                .collect();
            type Pair = (usize, usize, Vec<u64>, u64, Vec<u64>, Vec<u64>, u64);
            // What a tile yields: each live pair with its basis,
            // derivatives and `Σ φ'_k w_k`, then the energy row and the
            // energy, summed pair by pair over the chunks.
            let want = |m: usize| -> (Vec<Pair>, Vec<u64>, u64) {
                let (mut phi, mut dphi) = ([0.0; MAX_BASIS], [0.0; MAX_BASIS]);
                let (mut erow, mut energy) = (vec![0.0; k], 0.0);
                let seen = pairs[..m]
                    .iter()
                    .map(|&(i, j, dvec, r)| {
                        reference::eval(&basis, r, &mut phi, &mut dphi);
                        let de = dphi.iter().zip(&weights).fold(0.0, |de, (dp, wk)| de + dp * wk);
                        for ((e, p), wk) in erow.iter_mut().zip(&phi).zip(&weights) {
                            *e += p;
                            energy += p * wk;
                        }
                        let (phi, dphi) = (bits(&phi[..k]), bits(&dphi[..k]));
                        (i, j, bits(&dvec), r.to_bits(), phi, dphi, de.to_bits())
                    })
                    .collect();
                (seen, bits(&erow), energy.to_bits())
            };
            let got = |arm, m: usize| -> (Vec<Pair>, Vec<u64>, u64) {
                let (mut seen, mut erow, mut energy) = (Vec::new(), vec![0.0; k], 0.0);
                // Every output starts as NaN, dead lanes included.
                let mut tile = Tile::new();
                (tile.dvec, tile.r) = ([[[f64::NAN; LANES]; GROUPS]; 3], [[f64::NAN; LANES]; GROUPS]);
                tile.phi = [[f64::NAN; LANES]; MAX_BASIS];
                let pairs = pairs[..m].iter().copied();
                run_on(arm, #[inline(always)] || {
                    basis.for_each_tile_of(pairs, &mut tile, #[inline(always)] |tile, g| {
                        tile.add_energy_row(g, &mut erow);
                        let de = tile.de(&basis, &weights, g);
                        for l in 0..tile.live(g) {
                            let (i, j) = tile.ij[g * LANES + l];
                            let dvec = tile.dvec.map(|comp| comp[g][l]);
                            let phi: Vec<f64> = tile.phi[..k].iter().map(|row| row[l]).collect();
                            let dphi: Vec<f64> =
                                (0..k).map(|kk| tile.dphi(&basis, kk, g)[l]).collect();
                            let r = tile.r[g][l].to_bits();
                            let de = de[l].to_bits();
                            seen.push((i, j, bits(&dvec), r, bits(&phi), bits(&dphi), de));
                            energy = tile.add_energy(g * LANES + l, &weights, energy);
                        }
                    });
                });
                (seen, bits(&erow), energy.to_bits())
            };
            // Either side of each lane-group and chunk edge.
            for m in [0, 1, 7, 8, 9, 63, 64, 65, 130] {
                let want = want(m);
                prop_assert_eq!(want.0.len(), m);
                for arm in supported_arms() {
                    prop_assert_eq!(&got(arm, m), &want, "{:?}, {} pairs", arm, m);
                }
            }
        }

        #[test]
        fn full_row_folds_bit_identical_to_one_row_per_pass_on_every_arm(
            seed in 0u64..500,
            which in 0usize..4,
            n_force in 0usize..4,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let basis = test_basis(which);
            let k = basis.dim();
            let (approx, reference) = (MorsePes::approx(), MorsePes::reference());
            // Exact zeros, either sign, in up to two entries of a block's
            // energy row: their coefficients send a quad down the per-row
            // path.
            let zero_some = |block: &mut DesignBlock, rng: &mut SimRng| {
                for _ in 0..rng.below(3) {
                    block.values[rng.below(k)] = [0.0, -0.0][rng.below(2)];
                }
            };
            let energy_only: Vec<DesignBlock> = (0..6)
                .map(|_| {
                    let s = jittered_cluster(2 + rng.below(19), 1.12, 0.45, &mut rng);
                    let ls = LabelledStructure::from_model(&s, &approx, false);
                    let mut block = DesignBlock::new(&ls, &basis);
                    zero_some(&mut block, &mut rng);
                    block
                })
                .collect();
            let mut with_forces = Vec::new();
            for _ in 0..3 {
                // 2–20 atoms, so `3n % 4` takes every value. In half the
                // clusters one atom sits 60 Å off: its `φ'` underflow, so
                // its three force rows and their labels are exact zeros.
                let mut s = jittered_cluster(2 + rng.below(19), 1.12, 0.45, &mut rng);
                if rng.below(2) == 0 {
                    let a = rng.below(s.n_atoms());
                    s.positions[a][0] += 60.0;
                }
                let ls = LabelledStructure::from_model(&s, &reference, true);
                let want = bits(&reference::block_values(&ls, &basis));
                for arm in supported_arms() {
                    let new = DesignBlock::new_body;
                    let block = run_on(arm, #[inline(always)] || new(&ls, &basis));
                    prop_assert_eq!(&bits(&block.values), &want, "block on {:?}", arm);
                }
                let mut block = DesignBlock::new(&ls, &basis);
                prop_assert_eq!(&bits(&block.values), &want, "block");
                zero_some(&mut block, &mut rng);
                with_forces.push(block);
            }
            // A shuffled bag: runs of 0–7 energy-only blocks around
            // `n_force` force blocks, repeats allowed.
            let mut bag: Vec<&DesignBlock> = Vec::new();
            for f in 0..=n_force {
                bag.extend((0..rng.below(8)).map(|_| &energy_only[rng.below(6)]));
                if f < n_force {
                    bag.push(&with_forces[rng.below(3)]);
                }
            }
            if bag.is_empty() {
                bag.push(&energy_only[0]);
            }
            let params = PairPotParams {
                lambda: [1e-6, 1e-3][rng.below(2)],
                energy_weight: 0.05 + 10.0 * rng.unit(),
                force_weight: 0.05 + 10.0 * rng.unit(),
            };
            let want = reference::fit_blocks(&bag, basis.clone(), params).map(|m| bits(&m.weights));
            for arm in supported_arms() {
                let (fit, bag, basis) = (PairPotential::fit_blocks_body, &bag, basis.clone());
                let got = run_on(arm, #[inline(always)] move || fit(bag, basis, params));
                let got = got.map(|m| bits(&m.weights));
                prop_assert_eq!(got, want.clone(), "fit on {:?}", arm);
            }
            let got = PairPotential::fit_blocks(&bag, basis, params);
            prop_assert_eq!(got.map(|m| bits(&m.weights)), want, "fit");
        }

        #[test]
        fn fold_rows_keep_the_per_row_zero_skip_on_every_arm(
            seed in 0u64..1000,
            k in 1usize..=MAX_BASIS,
            n in 0usize..10,
        ) {
            let mut rng = SimRng::from_seed(seed);
            // Rows, accumulators and the weight mix normals with ±0, ±∞
            // and NaN: where a coefficient is zero, the skip alone decides
            // whether `0·∞` lands and whether a `-0` accumulator stays `-0`.
            let draw = |rng: &mut SimRng| match rng.below(16) {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2)],
                5 => f64::NAN,
                _ => rng.standard_normal(),
            };
            let stride = [k, k.next_multiple_of(LANES)][rng.below(2)];
            let rows: Vec<(Vec<f64>, f64)> = (0..n)
                .map(|_| ((0..stride).map(|_| draw(&mut rng)).collect(), draw(&mut rng)))
                .collect();
            let acc0: Vec<f64> = (0..k * stride).map(|_| draw(&mut rng)).collect();
            let rhs0: Vec<f64> = (0..k).map(|_| draw(&mut rng)).collect();
            let w = [1.0, 0.05 + 10.0 * rng.unit(), draw(&mut rng)][rng.below(3)];
            // One row per pass over the upper triangle, a zero coefficient
            // skipped, as `add_scaled_row` skips it.
            let (mut acc, mut rhs) = (acc0.clone(), rhs0.clone());
            for (x, t) in &rows {
                for i in 0..k {
                    let a = w * x[i];
                    if a != 0.0 {
                        for j in i..k {
                            acc[i * stride + j] += a * x[j];
                        }
                    }
                }
                let a = w * t;
                if a != 0.0 {
                    for j in 0..k {
                        rhs[j] += a * x[j];
                    }
                }
            }
            // Bits, every NaN as one: a NaN's payload follows operand
            // order, which codegen may commute.
            let key = |v: &[f64]| -> Vec<u64> {
                v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
            };
            let upper = |acc: &[f64]| -> Vec<u64> {
                (0..k).flat_map(|i| key(&acc[i * stride + i..i * stride + k])).collect()
            };
            for arm in supported_arms() {
                let (mut got, mut got_rhs) = (acc0.clone(), rhs0.clone());
                let row = |r: usize| (&rows[r].0[..], rows[r].1);
                let out = (&mut got, &mut got_rhs);
                run_on(arm, #[inline(always)] || fold_rows(out.0, stride, out.1, n, row, w));
                prop_assert_eq!(upper(&got), upper(&acc), "upper triangle on {:?}", arm);
                prop_assert_eq!(key(&got_rhs), key(&rhs), "rhs on {:?}", arm);
            }
        }
    }

    proptest! {
        #[test]
        fn recurrence_within_1e14_of_per_centre_exp(seed in 0u64..2000) {
            let mut rng = SimRng::from_seed(seed);
            // Below r_min, on the grid, past r_max, and out to 12 Å,
            // where the per-centre `exp` underflows.
            let r = match rng.below(4) {
                0 => 0.6 * rng.unit(),
                1 | 2 => 0.6 + 2.6 * rng.unit(),
                _ => 3.2 + 8.8 * rng.unit(),
            };
            let bases = [RadialBasis::default_for_clusters(), RadialBasis::new(9, 0.5, 3.0, 0.25)];
            for basis in bases {
                let k = basis.dim();
                let (mut phi, mut dphi) = ([0.0; MAX_BASIS], [0.0; MAX_BASIS]);
                reference::eval(&basis, r, &mut phi, &mut dphi);
                let (mut want, mut dwant) = (vec![0.0; k], vec![0.0; k]);
                reference::exp_values(&basis, r, &mut want);
                reference::exp_derivs(&basis, r, &mut dwant);
                for kk in 0..k {
                    prop_assert!(phi[kk].is_finite() && dphi[kk].is_finite(), "r {r} k {kk}");
                    prop_assert!((phi[kk] - want[kk]).abs() <= 1e-14, "φ r {r} k {kk}");
                    prop_assert!((dphi[kk] - dwant[kk]).abs() <= 1e-13, "φ' r {r} k {kk}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn many_member_kernels_bit_identical_to_per_member_calls_on_every_arm(
            seed in 0u64..2000,
            mi in 0usize..5,
            n_structures in 1usize..4,
            mixed in 0usize..4,
        ) {
            // One member, a lane group short of, at and one past eight, and
            // a third group of one.
            let n_members = [1, 7, 8, 9, 17][mi];
            let mut rng = SimRng::from_seed(seed);
            let mut members = random_members(n_members, &mut rng);
            if mixed == 0 {
                // One member on another basis: no table serves them all.
                let basis = RadialBasis::new(9, 0.5, 3.0, 0.25);
                let weights = (0..basis.dim()).map(|_| rng.standard_normal()).collect();
                let at = rng.below(n_members);
                members[at] = PairPotential { basis, weights };
            }
            let shared = PairPotential::shared_basis(&members).is_some();
            prop_assert_eq!(shared, mixed != 0 || n_members == 1);
            prop_assert_eq!(PairPotential::mean(&members).is_some(), shared);
            let batch: Vec<Structure> = (0..n_structures)
                .map(|_| jittered_cluster(2 + rng.below(11), 1.12, 0.45, &mut rng))
                .collect();
            let all_bits = |out: &[Vec<f64>]| -> Vec<Vec<u64>> {
                out.iter().map(|e| bits(e)).collect()
            };
            let want: Vec<Vec<u64>> = members
                .iter()
                .map(|m| bits(&batch.iter().map(|s| m.energy(s)).collect::<Vec<_>>()))
                .collect();
            let energies = PairPotential::energies_many(&members, &batch);
            prop_assert_eq!(all_bits(&energies), want.clone());
            if let Some(basis) = PairPotential::shared_basis(&members) {
                let lanes = PairPotential::shared_energies;
                for arm in supported_arms() {
                    let got = run_on(arm, #[inline(always)] || lanes(basis, &members, &batch));
                    prop_assert_eq!(all_bits(&got), want.clone(), "{:?}", arm);
                }
            }
        }

        #[test]
        fn mean_model_forces_within_1e12_of_the_member_average(
            seed in 0u64..2000,
            n_members in 1usize..=8,
            atoms in 2usize..=20,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let members = random_members(n_members, &mut rng);
            let s = jittered_cluster(atoms, 1.12, 0.45, &mut rng);
            let mean = PairPotential::mean(&members).unwrap();
            let (_, got) = mean.energy_forces(&s);
            let want = member_average_forces(&members, &s);
            let (mut diff, mut scale) = (0.0f64, 0.0f64);
            for (p, q) in got.as_flattened().iter().zip(want.as_flattened()) {
                diff = diff.max((p - q).abs());
                scale = scale.max(q.abs());
            }
            prop_assert!(diff <= 1e-12 * scale, "{} of {}", diff, scale);
        }
    }

    /// `n` members on the default basis with standard-normal weights.
    fn random_members(n: usize, rng: &mut SimRng) -> Vec<PairPotential> {
        (0..n)
            .map(|_| {
                let basis = RadialBasis::default_for_clusters();
                let weights = (0..basis.dim()).map(|_| rng.standard_normal()).collect();
                PairPotential { basis, weights }
            })
            .collect()
    }

    /// The ensemble's mean force as Fig. 7a's score computed it before
    /// the mean model: every member's forces, averaged member by member.
    fn member_average_forces(members: &[PairPotential], s: &Structure) -> Vec<Vec3> {
        let mut mean = vec![[0.0f64; 3]; s.n_atoms()];
        for m in members {
            let (_, f) = m.energy_forces(s);
            for (acc_f, f) in mean.iter_mut().zip(&f) {
                for k in 0..3 {
                    acc_f[k] += f[k] / members.len() as f64;
                }
            }
        }
        mean
    }

    #[test]
    fn no_mean_of_no_members() {
        assert!(PairPotential::mean(&[]).is_none());
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
