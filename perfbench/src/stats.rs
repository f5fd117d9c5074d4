//! Order statistics over latency samples.

/// The `p`-th percentile (0–100) of `samples` by nearest rank: the value at
/// 1-based rank `ceil(p / 100 * n)` of the sorted samples (rank 1 for
/// `p = 0`).  `None` for no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median: the mean of the two middle values for an even count.
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// position — the tail a percentile can claim to describe.
pub fn beyond_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&v, 50.0), Some(3.0));
        assert_eq!(nearest_rank(&v, 95.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 20.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 21.0), Some(2.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 95.0), Some(95.0));
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_p95_tail_needs_two_hundred_samples_for_ten_beyond_it() {
        assert_eq!(beyond_rank(100, 95.0), 5);
        assert_eq!(beyond_rank(199, 95.0), 9);
        assert_eq!(beyond_rank(200, 95.0), 10);
        assert_eq!(beyond_rank(0, 95.0), 0);
    }
}
