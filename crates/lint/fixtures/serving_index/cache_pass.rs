//@ mount: crates/engine/src/cache.rs
// The same LRU bookkeeping, total: an empty order is the caller's
// signal that there is nothing to evict. Slice patterns, array literals,
// attributes and types do not index, and tests may index freely.

use std::collections::VecDeque;

#[derive(Debug)]
struct Order {
    ids: VecDeque<u64>,
    seed: [u64; 2],
}

fn peek_newest(order: &Order) -> Option<u64> {
    order.ids.back().copied()
}

fn first_pair(order: &Order) -> Option<(u64, u64)> {
    let [a, b] = order.seed;
    let _ = vec![a, b];
    Some((a, b))
}

#[cfg(test)]
mod tests {
    #[test]
    fn indexing_is_fine_in_tests() {
        let ids: std::collections::VecDeque<u64> = [3].into_iter().collect();
        assert_eq!(ids[0], 3);
    }
}
