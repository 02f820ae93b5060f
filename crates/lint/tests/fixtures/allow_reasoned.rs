//! Suppression fixture: a reasoned allow covers the next code line.

fn rank(scores: &mut Vec<f64>) {
    // hetlint: allow(r6) — scores are filtered NaN-free two lines up
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
