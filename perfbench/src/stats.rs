//! Order statistics for the benchmark's reported timings.

/// Samples a percentile must leave above it before it is reported: the
/// highest percentile a sample supports is one with at least this many
/// observations beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank whose share of the sample is at least `pct` percent.
pub fn nearest_rank(pct: u32, n: usize) -> usize {
    assert!(pct <= 100, "percentile above 100");
    let rank = (pct as usize * n).div_ceil(100);
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(pct, sorted.len()) - 1])
}

/// Nearest-rank percentile, reported only when at least [`MIN_BEYOND`]
/// samples lie beyond its rank.
pub fn supported_percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - nearest_rank(pct, n) < MIN_BEYOND {
        return None;
    }
    percentile(samples, pct)
}

/// Median of `samples`: the mean of the two middle values for an even
/// count (0 when empty, for counters that never fired).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Ranks over 1..=10: p50 is the 5th value, p90 the 9th, p100 the last.
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Some(5.0));
        assert_eq!(percentile(&samples, 90), Some(9.0));
        assert_eq!(percentile(&samples, 91), Some(10.0));
        assert_eq!(percentile(&samples, 100), Some(10.0));
        assert_eq!(percentile(&samples, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: rank 90 leaves exactly 10 beyond.
        assert_eq!(supported_percentile(&sample(100), 90), Some(89.0));
        // 99 samples: rank 90 leaves 9 beyond, too few.
        assert_eq!(supported_percentile(&sample(99), 90), None);
        assert_eq!(supported_percentile(&sample(8), 90), None);
        // The median needs only 20.
        assert!(supported_percentile(&sample(20), 50).is_some());
        assert_eq!(supported_percentile(&sample(19), 50), None);
        assert_eq!(supported_percentile(&[], 50), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
