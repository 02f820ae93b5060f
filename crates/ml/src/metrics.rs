//! Regression quality metrics.

/// Root-mean-square error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let se: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).powi(2)).sum();
    (se / pred.len() as f64).sqrt()
}

/// Coefficient of determination R². 1 is perfect; 0 matches the mean
/// baseline; negative is worse than the mean.
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mean: f64 = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (t - p).powi(2)).sum();
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&y, &y), 0.0);
        assert_eq!(r2(&y, &y), 1.0);
    }

    #[test]
    fn known_errors() {
        let p = [1.0, 2.0];
        let t = [0.0, 4.0];
        assert!((rmse(&p, &t) - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&p, &t).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_truth_edge_case() {
        let t = [2.0, 2.0];
        assert_eq!(r2(&[2.0, 2.0], &t), 1.0);
        assert_eq!(r2(&[1.0, 3.0], &t), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }
}
