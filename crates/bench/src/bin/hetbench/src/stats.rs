//! The arithmetic behind every reported number: Σ/Σ rates,
//! percentiles, and the FNV-1a fold behind `sim_fingerprint`.

/// Σ work ÷ Σ seconds over `(work, seconds)` samples — one rate for
/// the whole run, so a rep that landed in a slow host phase weighs in
/// by the time it took, not as one vote among equals. `0` when no time
/// was measured.
pub fn ratio_of_sums(samples: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (work, secs) = samples
        .into_iter()
        .fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between order statistics; `0` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (hi - sorted[lo]) * frac,
        None => last,
    }
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Streaming FNV-1a (64-bit), the same fold the simulator's trace
/// digest uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a counter.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_sums_weighs_by_time_not_by_rep() {
        // One fast rep and one rep three times slower: the mean of the
        // two rates would say 200/s; the run did 200 in 3 s.
        let reps = [(100.0, 0.5), (100.0, 1.5)];
        assert_eq!(ratio_of_sums(reps), 100.0);
        assert_eq!(ratio_of_sums([]), 0.0);
        assert_eq!(ratio_of_sums([(5.0, 0.0)]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.75), 3.25);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn fnv_matches_reference_vectors_and_is_order_sensitive() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut ab = Fnv::default();
        ab.u64(1);
        ab.f64(2.0);
        let mut ba = Fnv::default();
        ba.f64(2.0);
        ba.u64(1);
        assert_ne!(ab.finish(), ba.finish());
        let mut again = Fnv::default();
        again.u64(1);
        again.f64(2.0);
        assert_eq!(ab, again);
    }
}
