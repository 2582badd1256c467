//! Summary statistics over timing samples.

/// A nearest-rank percentile together with the samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it: a percentile means little unless this
    /// is at least ten.
    pub beyond: usize,
}

/// The nearest-rank `pct`-th percentile (`0 < pct <= 100`) of `samples`,
/// or `None` when there are none.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median: the middle value, or the mean of the two middle values
/// of an even count; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The Harrell–Davis estimate of the `p`-quantile (`0 < p < 1`): a
/// weighted mean of every order statistic, weighted by the
/// Beta((n + 1)p, (n + 1)(1 − p)) distribution over the rank intervals.
/// Over a few values of very different sizes (the zoo's jobs) it moves
/// smoothly as the values move, where a nearest-rank percentile jumps
/// to a neighbour whenever two of them trade places. The weights are
/// integrated by the midpoint rule, which is accurate while both Beta
/// parameters are at least 1 (for the 95th percentile, 19 samples or
/// more). `None` for no samples.
pub fn hd_quantile(samples: &[f64], p: f64) -> Option<f64> {
    /// Midpoint-rule steps per rank interval.
    const STEPS: usize = 64;
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = ((n + 1) as f64 * p, (n + 1) as f64 * (1.0 - p));
    let log_density = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (-t).ln_1p();
    // Scaled by the density at its mode, so long inputs do not underflow.
    let peak = if a > 1.0 && b > 1.0 {
        log_density((a - 1.0) / (a + b - 2.0))
    } else {
        0.0
    };
    let steps = (n * STEPS) as f64;
    let (mut total, mut weighted) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|k| (log_density(((i * STEPS + k) as f64 + 0.5) / steps) - peak).exp())
            .sum();
        total += w;
        weighted += w * x;
    }
    Some(weighted / total)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The geometric mean of positive values; `None` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                samples: 100,
                beyond: 50
            }
        );
        let p95 = percentile(&xs, 95.0).unwrap();
        assert_eq!(
            p95,
            Percentile {
                value: 95.0,
                samples: 100,
                beyond: 5
            }
        );
        let p100 = percentile(&xs, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
        let one = percentile(&[3.5], 95.0).unwrap();
        assert_eq!(
            one,
            Percentile {
                value: 3.5,
                samples: 1,
                beyond: 0
            }
        );
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_quantile() {
        assert_eq!(hd_quantile(&[], 0.5), None);
        assert_eq!(hd_quantile(&[7.0], 0.95), Some(7.0));
        let close = |got: Option<f64>, want: f64| {
            let got = got.unwrap();
            assert!((got - want).abs() < 1e-3, "{got} != {want}");
        };
        // Symmetric weights: the median of 1..=10 is 5.5, in any order.
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        close(hd_quantile(&xs, 0.5), 5.5);
        close(hd_quantile(&[4.0; 6], 0.95), 4.0);
        // Reference values from a finer numerical integration.
        let skewed = [1.0, 2.0, 3.0, 4.0, 10.0];
        close(hd_quantile(&skewed, 0.5), 3.2896);
        assert!((hd_quantile(&skewed, 0.8).unwrap() - 7.3629).abs() < 0.005);
        let mut twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        twenty[19] = 50.0;
        assert!((hd_quantile(&twenty, 0.95).unwrap() - 38.0196).abs() < 0.005);
        // Trading places leaves it where it was; a nearest-rank median
        // of the same values would jump from 3 to 4.
        let before = hd_quantile(&[1.0, 3.0, 4.0, 9.0], 0.5).unwrap();
        let after = hd_quantile(&[1.0, 3.1, 3.9, 9.0], 0.5).unwrap();
        assert!((before - after).abs() < 0.01, "{before} vs {after}");
        // Long inputs do not underflow.
        let long: Vec<f64> = (0..4000).map(f64::from).collect();
        close(hd_quantile(&long, 0.5), 1999.5);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
