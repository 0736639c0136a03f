//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` is a fraction in
/// `[0, 1]`; an empty slice gives `0.0`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match percentile_index(sorted.len(), p) {
        Some(i) => sorted[i],
        None => 0.0,
    }
}

/// Index [`percentile`] reads, or `None` for an empty sample.
pub fn percentile_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Samples strictly above the nearest-rank percentile position, i.e. how
/// many observations the reported percentile rests on beyond itself.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    percentile_index(n, p).map_or(0, |i| n - 1 - i)
}

/// Sort a sample ascending (NaN-free latencies; `total_cmp` keeps it total).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of an unsorted sample (mean of the two middle values for even
/// counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_hand_checked_sample() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 10.0);
        assert_eq!(percentile(&s, 0.9), 18.0);
        assert_eq!(percentile(&s, 1.0), 20.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn samples_beyond_p90_needs_a_hundred_and_ten_samples_for_ten() {
        assert_eq!(samples_beyond(20, 0.9), 2);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(109, 0.9), 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
