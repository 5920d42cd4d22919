//! Sample statistics over `f64` measurements.

/// Nearest-rank percentile of an ascending-sorted sample set: the sample at
/// rank `ceil(pct/100 × n)`, clamped to `[1, n]`. Zero for an empty set.
/// The same definition as `sirius::profile::percentile_of_sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the two middle samples averaged. Zero for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_matches_the_repo_definition() {
        for n in [1usize, 2, 3, 4, 10, 99, 100, 101, 1000] {
            let micros: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 10_007).collect();
            let mut durations: Vec<Duration> =
                micros.iter().map(|&m| Duration::from_micros(m)).collect();
            durations.sort();
            let ours = sorted(micros.iter().map(|&m| m as f64).collect());
            for pct in [0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0] {
                let theirs = sirius::profile::percentile_of_sorted(&durations, pct);
                assert_eq!(
                    percentile(&ours, pct),
                    theirs.as_micros() as f64,
                    "n={n} pct={pct}"
                );
            }
        }
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
