//! Summary statistics used throughout the experiment harness.
//!
//! The paper reports the *standard deviation of processor loads* (Figures
//! 7b, 8b, 10b) next to communication cost. [`stddev`] and [`mean`] compute
//! the moments with Welford's online algorithm, so long simulation runs
//! never accumulate FP cancellation error.

/// Welford's pass over `xs`: the mean and the sum of squared deviations
/// from it (`(0, 0)` for an empty slice).
fn welford(xs: &[f64]) -> (f64, f64) {
    let (mut mean, mut m2) = (0.0, 0.0);
    for (k, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (k + 1) as f64;
        m2 += delta * (x - mean);
    }
    (mean, m2)
}

/// Population standard deviation of a slice (divides by `n`; 0 for an
/// empty slice) — what the paper's "standard deviation of system load"
/// figures plot.
///
/// # Examples
///
/// ```
/// use cosmos_util::stats::{mean, stddev};
///
/// let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
/// assert!((mean(&xs) - 5.0).abs() < 1e-12);
/// assert!((stddev(&xs) - 2.0).abs() < 1e-12);
/// ```
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (welford(xs).1 / xs.len() as f64).sqrt()
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    welford(xs).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_neutral() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        assert_eq!(mean(&[3.5]), 3.5);
        assert_eq!(stddev(&[3.5]), 0.0);
    }

    #[test]
    fn matches_two_pass_formula() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0, -5.0];
        let two_pass_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - two_pass_mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean(&xs) - two_pass_mean).abs() < 1e-12);
        assert!((stddev(&xs) - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn helpers_agree_with_summary() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            prop_assert!(stddev(&xs) >= 0.0);
        }
    }
}
