//! Order statistics and means the harness reports.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice or a non-finite sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The fastest of several repetitions: host noise only adds time, so it is
/// the best estimate of what the repeated operation costs undisturbed.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each slot's [`fastest`] time over rounds that each timed the same
/// operations ("slots": the cells of a pass, the deploys of a sweep) once, in
/// the same order. Summed, that is one undisturbed round: totals and medians
/// carry every burst of host noise, the fastest repetitions far fewer.
pub fn fastest_per_slot<'a>(rounds: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for round in rounds {
        if best.len() < round.len() {
            best.resize(round.len(), f64::INFINITY);
        }
        for (b, ms) in best.iter_mut().zip(round) {
            *b = b.min(*ms);
        }
    }
    best
}

/// Geometric mean of strictly positive samples.
///
/// # Panics
///
/// Panics on an empty slice or a sample that is not positive.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    let log_sum: f64 = samples
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive samples, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / samples.len() as f64).exp()
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The highest of p75/p90/p95/p99 that still has at least ten samples beyond
/// it, as `(percentile, value)`; `None` when even p75 has not.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(samples, p)))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), so `bench compare` sees the spread the
/// acceptance check sees. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range over the median; 0 with fewer than two samples.
pub fn relative_spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) => (q3 - q1) / median(samples).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_ignores_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn each_slot_keeps_its_fastest_round() {
        let rounds = [
            vec![10.0, 5.0, 30.0],
            vec![11.0, 40.0, 20.0],
            vec![90.0, 5.5, 25.0],
        ];
        assert_eq!(fastest_per_slot(&rounds), [10.0, 5.0, 20.0]);
        assert_eq!(fastest_per_slot(rounds.iter().skip(1)), [11.0, 5.5, 20.0]);
        assert_eq!(fastest(&[4.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&few), None);
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&forty).unwrap().0, 75.0);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&thousand).unwrap().0, 99.0);
    }
}
