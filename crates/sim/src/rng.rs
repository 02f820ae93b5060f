//! Deterministic random-number streams.
//!
//! Every stochastic draw in the simulator comes from a named stream derived
//! from the run's master seed, so two components never share a stream and a
//! run is bit-reproducible regardless of which subsystems are enabled.
//!
//! The generator is a self-contained xoshiro256++ (no external crates, no
//! platform entropy): given the same seed it yields the same sequence on
//! every build and host, which is the property the whole determinism
//! contract rests on. This module is the single sanctioned source of
//! randomness in the workspace.

/// Mixes a 64-bit value with the SplitMix64 finalizer.
///
/// Used to derive independent stream seeds from `(master_seed, name)`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; stable across platforms and builds.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic random stream.
///
/// An xoshiro256++ generator that remembers how it was derived, which
/// makes traces and failures easier to attribute.
///
/// A stream never leaves the thread that derived it (R12): `SimRng` is
/// not `Send`, so a thread that needs randomness takes the seed and
/// derives its own stream.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<hetflow_sim::SimRng>();
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
    /// Zero-sized; makes the type `!Send` and `!Sync`.
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl SimRng {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        // Expand the seed through SplitMix64, the initialization the
        // xoshiro authors recommend; a zero state is impossible because
        // SplitMix64 is a bijection walked from four distinct inputs.
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(s);
        }
        SimRng { state, seed, _thread_bound: std::marker::PhantomData }
    }

    /// Derives the stream named `name` from `master` deterministically.
    ///
    /// Distinct names yield statistically independent streams; the same
    /// `(master, name)` pair always yields the same stream. `name` takes
    /// anything convertible to a [`Symbol`](crate::Symbol) — the seed is
    /// hashed from the *resolved bytes*, so a pre-interned symbol and the
    /// string it was interned from derive the identical stream.
    pub fn stream(master: u64, name: impl Into<crate::intern::Symbol>) -> Self {
        let name = name.into();
        let seed = splitmix64(master ^ fnv1a(name.as_str().as_bytes()));
        SimRng::from_seed(seed)
    }

    /// Derives a numbered child stream, e.g. one per worker or ensemble
    /// member.
    pub fn substream(&self, index: u64) -> Self {
        SimRng::from_seed(splitmix64(self.seed ^ splitmix64(index)))
    }

    /// Next raw 64-bit draw (xoshiro256++ step).
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits — the full precision of an f64 mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Fixed-point multiply: maps the 64-bit draw into [0, n) with
        // bias below 2^-64·n — negligible at simulation scales and, unlike
        // rejection sampling, always exactly one draw per call, which keeps
        // stream consumption predictable.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal draw via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Partial Fisher–Yates over an index vector: O(n) setup, fine at
        // the scales used here (dataset subsets, worker assignment).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = SimRng::stream(42, "alpha");
        let mut b = SimRng::stream(42, "alpha");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let mut a = SimRng::stream(42, "alpha");
        let mut b = SimRng::stream(42, "beta");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_masters_diverge() {
        let mut a = SimRng::stream(1, "alpha");
        let mut b = SimRng::stream(2, "alpha");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_are_independent() {
        let root = SimRng::stream(7, "workers");
        let mut s0 = root.substream(0);
        let mut s1 = root.substream(1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        // Reproducible.
        let mut s0b = root.substream(0);
        let mut fresh = SimRng::stream(7, "workers").substream(0);
        fresh.next_u64();
        s0b.next_u64();
        assert_eq!(s0b.next_u64(), fresh.next_u64());
    }

    #[test]
    fn generator_matches_reference_vectors() {
        // xoshiro256++ reference: state seeded by SplitMix64 must
        // reproduce the same sequence forever — a build/platform drift
        // here would silently invalidate every recorded figure.
        let mut r = SimRng::from_seed(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = SimRng::from_seed(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        assert_eq!(first.len(), 4);
        // Distinct draws (a constant generator would also pass the
        // reproducibility check above).
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = SimRng::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "below(7) never produced some residue");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::from_seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::from_seed(9);
        let s = r.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 30);
        assert!(t.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        let mut r = SimRng::from_seed(9);
        let _ = r.sample_indices(3, 4);
    }

    #[test]
    fn fnv_distinguishes_strings() {
        assert_ne!(fnv1a(b"simulation"), fnv1a(b"inference"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
