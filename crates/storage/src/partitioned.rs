//! Adaptive range selection, the production form of the paper's §3.4.1
//! partitioning idea.
//!
//! "This technique constructs sub-trees stemming from fixed-length prefixes
//! of each suffix in memory, by making one pass through the sequence data
//! for each subtree. We use this same general approach …, but select lexical
//! ranges for each pass based on the contents of the underlying database
//! sequences."
//!
//! The index itself is built in memory by SA-IS, Kasai's LCP and the
//! tree assembler; this module holds the technique's range selection.
//! [`budget_ranges`] groups consecutive weighted items under a budget and
//! [`balanced_ranges`] picks the most even split into at most K ranges.
//! The engine's shard partitioner uses them with per-sequence residue
//! counts as weights, so each shard is a contiguous run of sequences with
//! its own generalized suffix tree.

/// Group consecutive weighted items into inclusive index ranges whose
/// summed weight respects `budget`. A single item heavier than the budget
/// forms a range of its own — the "select lexical ranges based on the
/// contents" adaptation — and all-zero stretches are skipped entirely.
///
/// This is the range-selection core of the engine layer's shard-boundary
/// picker (weights = per-sequence residue counts).
pub fn budget_ranges(weights: &[usize], budget: usize) -> Vec<(usize, usize)> {
    assert!(budget > 0, "partition budget must be positive");
    let mut ranges = Vec::new();
    let mut lo = 0usize;
    while lo < weights.len() {
        let mut hi = lo;
        let mut total = weights[lo];
        while hi + 1 < weights.len() && total + weights[hi + 1] <= budget {
            hi += 1;
            total += weights[hi];
        }
        if total > 0 {
            ranges.push((lo, hi));
        }
        lo = hi + 1;
    }
    ranges
}

/// Split consecutive weighted items into at most `max_ranges` contiguous
/// inclusive ranges, choosing boundaries that keep the heaviest range as
/// light as possible: the smallest budget for which [`budget_ranges`]
/// needs no more than `max_ranges` passes, found by bisection. All-zero
/// stretches are dropped, so fewer than `max_ranges` ranges may return.
pub fn balanced_ranges(weights: &[usize], max_ranges: usize) -> Vec<(usize, usize)> {
    assert!(max_ranges > 0, "must allow at least one range");
    let total: usize = weights.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let heaviest = *weights.iter().max().expect("non-empty");
    let (mut lo, mut hi) = (heaviest.max(1), total);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if budget_ranges(weights, mid).len() <= max_ranges {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    budget_ranges(weights, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        budget_ranges(&[1, 2], 0);
    }

    #[test]
    fn budget_ranges_respect_budget_and_cover_everything() {
        let weights = [3usize, 1, 4, 1, 5, 9, 2, 6];
        for budget in 1..=40 {
            let ranges = budget_ranges(&weights, budget);
            // Contiguous cover of all indices, in order.
            let mut next = 0usize;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next);
                assert!(hi >= lo);
                let total: usize = weights[lo..=hi].iter().sum();
                // Within budget unless a single item alone exceeds it.
                assert!(total <= budget || lo == hi, "budget {budget}: {lo}..={hi}");
                next = hi + 1;
            }
            assert_eq!(next, weights.len());
        }
    }

    #[test]
    fn budget_ranges_skip_zero_stretches() {
        // Zero-weight items are absorbed into neighbouring ranges for free;
        // a stretch that stays all-zero is dropped.
        assert_eq!(budget_ranges(&[0, 0, 3, 0, 2, 0], 3), vec![(0, 3), (4, 5)]);
        assert!(budget_ranges(&[0, 0, 0], 5).is_empty());
        assert!(budget_ranges(&[], 5).is_empty());
    }

    #[test]
    fn balanced_ranges_hit_the_requested_count() {
        let weights = [3usize, 3, 3, 3];
        assert_eq!(balanced_ranges(&weights, 2), vec![(0, 1), (2, 3)]);
        // More ranges than items with weight: one range per item.
        assert_eq!(
            balanced_ranges(&weights, 16),
            vec![(0, 0), (1, 1), (2, 2), (3, 3)]
        );
        // The awkward case where a greedy fixed budget of ceil(total/k)
        // would overshoot k: bisection finds boundaries that fit.
        let awkward = [7usize, 6, 7];
        let two = balanced_ranges(&awkward, 2);
        assert_eq!(two.len(), 2);
        assert_eq!(two, vec![(0, 1), (2, 2)]);
        // Never more than asked, and a single range swallows everything.
        for k in 1..=6 {
            let ranges = balanced_ranges(&awkward, k);
            assert!(ranges.len() <= k, "k={k}: {ranges:?}");
            let covered: usize = ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum();
            assert_eq!(covered, awkward.len());
        }
        assert_eq!(balanced_ranges(&awkward, 1), vec![(0, 2)]);
        assert!(balanced_ranges(&[], 3).is_empty());
        assert!(balanced_ranges(&[0, 0], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one range")]
    fn zero_range_count_rejected() {
        balanced_ranges(&[1, 2], 0);
    }
}
