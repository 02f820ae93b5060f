//! Statistics over seeds for the gates that compare campaigns: an exact
//! two-sample permutation test and an exact paired sign-flip test, both
//! deterministic because they enumerate every split or sign pattern
//! instead of sampling them, and the pooled ratio of two hit rates.

/// Two-sided exact permutation p-value for a difference in means: the
/// share of the `C(|a| + |b|, |a|)` ways to split the pooled values into
/// groups of `|a|` and `|b|` whose absolute mean difference is at least
/// the observed one (the observed split included, so `p > 0`). A split
/// within `1e-12 ×` the largest `|value|` of the observed statistic
/// counts as a tie, so rounding in the sums cannot break one.
/// `C(20, 10) = 184 756` splits take milliseconds.
pub fn permutation_p(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "both samples need a value");
    let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
    let (n, m) = (pooled.len(), a.len());
    let total: f64 = pooled.iter().sum();
    let stat = |idx: &[usize]| {
        let x: f64 = idx.iter().map(|&i| pooled[i]).sum();
        (x / m as f64 - (total - x) / (n - m) as f64).abs()
    };
    let tol = 1e-12 * pooled.iter().fold(0.0, |acc: f64, v| acc.max(v.abs()));
    // The first combination is the observed split, `a` as given.
    let mut idx: Vec<usize> = (0..m).collect();
    let observed = stat(&idx);
    let (mut at_least, mut splits) = (0u64, 0u64);
    loop {
        splits += 1;
        at_least += u64::from(stat(&idx) >= observed - tol);
        // Next combination in lexicographic order.
        let Some(i) = (0..m).rev().find(|&i| idx[i] < n - m + i) else {
            break;
        };
        idx[i] += 1;
        for j in i + 1..m {
            idx[j] = idx[j - 1] + 1;
        }
    }
    at_least as f64 / splits as f64
}

/// Two-sided exact sign-flip p-value for paired differences with mean
/// zero: the share of the `2ⁿ` ways to flip the signs of `diffs` whose
/// `|Σ ± dᵢ|` is at least the observed `|Σ dᵢ|` (the observed pattern
/// included, so `p > 0`), with `permutation_p`'s tie tolerance. The
/// paired form for two policies run on the same seeds; `n ≤ 20` keeps
/// the enumeration to about a million patterns.
pub fn sign_flip_p(diffs: &[f64]) -> f64 {
    let n = diffs.len();
    assert!((1..=20).contains(&n), "sign_flip_p enumerates 2^n patterns: n = {n}");
    let signed = |mask: u32| -> f64 {
        let sum: f64 =
            diffs.iter().enumerate().map(|(i, &d)| if (mask >> i) & 1 == 1 { -d } else { d }).sum();
        sum.abs()
    };
    let tol = 1e-12 * diffs.iter().fold(0.0, |acc: f64, v| acc.max(v.abs()));
    // Mask 0 flips nothing: the observed pattern.
    let observed = signed(0);
    let patterns = 1u32 << n;
    let at_least = (0..patterns).filter(|&mask| signed(mask) >= observed - tol).count();
    at_least as f64 / f64::from(patterns)
}

/// The ratio of two pooled hit rates over `(hits, trials)` cells, each
/// `Σ hits ÷ Σ trials` so that a cell weighs by its trials. `b`'s rate
/// is floored at `1e-9`: no hits in `b` reads as a large ratio, not an
/// infinite one.
pub fn pooled_ratio(a: &[(usize, usize)], b: &[(usize, usize)]) -> f64 {
    let rate = |cells: &[(usize, usize)]| {
        let (hits, trials) = cells.iter().fold((0, 0), |(h, t), c| (h + c.0, t + c.1));
        hits as f64 / trials as f64
    };
    rate(a) / rate(b).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_against_two_by_hand() {
        // Splits of {1,2,3,4} into pairs, |mean difference|:
        // {1,2} 2, {1,3} 1, {1,4} 0, {2,3} 0, {2,4} 1, {3,4} 2.
        assert_eq!(permutation_p(&[1.0, 2.0], &[3.0, 4.0]), 2.0 / 6.0);
        assert_eq!(permutation_p(&[1.0, 3.0], &[2.0, 4.0]), 4.0 / 6.0);
        assert_eq!(permutation_p(&[1.0, 4.0], &[2.0, 3.0]), 1.0);
    }

    #[test]
    fn unequal_sizes_by_hand() {
        // {1} vs {2,3}: 1.5; {2} vs {1,3}: 0; {3} vs {1,2}: 1.5.
        assert_eq!(permutation_p(&[1.0], &[2.0, 3.0]), 2.0 / 3.0);
        assert_eq!(permutation_p(&[2.0], &[1.0, 3.0]), 1.0);
        // Symmetric in which sample is named first.
        assert_eq!(permutation_p(&[2.0, 3.0], &[1.0]), 2.0 / 3.0);
    }

    #[test]
    fn full_separation_reaches_the_smallest_p() {
        // Only the observed split and its mirror are as extreme.
        assert_eq!(permutation_p(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 2.0 / 20.0);
        let low: Vec<f64> = (0..10).map(f64::from).collect();
        let high: Vec<f64> = (10..20).map(f64::from).collect();
        assert_eq!(permutation_p(&low, &high), 2.0 / 184_756.0);
    }

    #[test]
    fn sign_flips_by_hand() {
        // ±1 ±2 ±3: 6, 4, 2, 0, 0, −2, −4, −6; only ±6 reach |6|.
        assert_eq!(sign_flip_p(&[1.0, 2.0, 3.0]), 0.25);
        // −1 ±2 ±3 (first flipped): |4| is reached by ±6 and ±4.
        assert_eq!(sign_flip_p(&[-1.0, 2.0, 3.0]), 0.5);
        assert_eq!(sign_flip_p(&[0.0; 10]), 1.0);
        assert_eq!(sign_flip_p(&[1.0]), 1.0);
        // Ten positive differences: only all-plus and all-minus.
        assert_eq!(sign_flip_p(&[1.0; 10]), 2.0 / 1024.0);
    }

    #[test]
    fn pooled_ratio_weighs_cells_by_trials() {
        // 4 hits in 20 trials against 1 in 20: 0.2 ÷ 0.05.
        assert_eq!(pooled_ratio(&[(1, 10), (3, 10)], &[(1, 5), (0, 15)]), 4.0);
        assert_eq!(pooled_ratio(&[(1, 10)], &[(0, 10)]), 0.1 / 1e-9);
    }

    #[test]
    fn identical_samples_never_separate() {
        let a = [0.1, 0.2, 0.30000000000000004, 0.4];
        assert_eq!(permutation_p(&a, &a), 1.0);
        assert_eq!(permutation_p(&[5.0; 10], &[5.0; 10]), 1.0);
    }
}
