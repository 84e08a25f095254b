//! Sample summaries under the benchmark's percentile rule: a percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it
//! (the harness prints the sample count beside it).

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering p% of the samples.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of repeated measurements of one quantity (the middle value,
/// or the mean of the two middle values). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

