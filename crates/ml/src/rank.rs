//! Acquisition scoring and task-queue reprioritization.
//!
//! The molecular-design thinker ranks candidates "by the Upper
//! Confidence Bound (UCB) of the predictions, which is the sum of the
//! mean and standard deviations of the model predictions" (§III-A).

/// Returns the indices of the `k` highest-scoring entries, best first.
///
/// Uses a partial selection: O(n) average to find the cut, then sorts
/// only the selected block — the candidate library is large (10⁵–10⁶ in
/// the paper) and `k` is small.
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    let cut = scores.len() - k;
    idx.select_nth_unstable_by(cut, |&a, &b| scores[a].total_cmp(&scores[b]));
    let mut selected = idx.split_off(cut);
    selected.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    selected
}

/// Ranks by variance (highest first) — the fine-tuning application's
/// uncertainty pool orders structures "based on the variance in
/// predicted energy" (§III-B).
pub fn rank_by_uncertainty(stds: &[f64], k: usize) -> Vec<usize> {
    top_k(stds, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_best_first() {
        let scores = [1.0, 9.0, 3.0, 7.0, 5.0];
        assert_eq!(top_k(&scores, 3), vec![1, 3, 4]);
        assert_eq!(top_k(&scores, 1), vec![1]);
    }

    #[test]
    fn top_k_handles_edge_sizes() {
        let scores = [2.0, 1.0];
        assert_eq!(top_k(&scores, 0), Vec::<usize>::new());
        assert_eq!(top_k(&scores, 5), vec![0, 1]);
        assert_eq!(top_k(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn top_k_matches_full_sort_on_random_input() {
        let mut rng = hetflow_sim::SimRng::from_seed(4);
        let scores: Vec<f64> = (0..500).map(|_| rng.standard_normal()).collect();
        let fast = top_k(&scores, 25);
        let mut slow: Vec<usize> = (0..scores.len()).collect();
        slow.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        slow.truncate(25);
        assert_eq!(fast, slow);
    }

    #[test]
    fn uncertainty_rank_is_descending_std() {
        let stds = [0.1, 0.5, 0.3];
        assert_eq!(rank_by_uncertainty(&stds, 2), vec![1, 2]);
    }
}
