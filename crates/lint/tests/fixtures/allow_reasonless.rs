//! Suppression fixture: an allow with no reason is itself a violation.

fn rank(scores: &mut Vec<f64>) {
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap()); // hetlint: allow(r6)
}
