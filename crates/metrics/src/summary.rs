//! Repetition averaging.

/// Average repetition values, ignoring outliers beyond 2.5σ of the mean —
/// the paper's stated procedure ("outliers of more than 2.5× the standard
/// deviation from the mean ignored").
pub fn average_with_outlier_rejection(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return mean;
    }
    let kept: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| (x - mean).abs() <= 2.5 * sd)
        .collect();
    if kept.is_empty() {
        mean
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_average_without_outliers() {
        let v = [1.0, 2.0, 3.0];
        assert!((average_with_outlier_rejection(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_extreme_outlier() {
        // Nine tight samples and one wild one.
        let mut v = vec![10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02, 9.98, 10.01];
        v.push(1_000.0);
        let avg = average_with_outlier_rejection(&v);
        assert!(avg < 11.0, "avg {avg}");
    }

    #[test]
    fn empty_and_constant() {
        assert_eq!(average_with_outlier_rejection(&[]), 0.0);
        assert_eq!(average_with_outlier_rejection(&[5.0, 5.0]), 5.0);
    }
}
