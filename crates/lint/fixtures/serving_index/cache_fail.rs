//@ mount: crates/engine/src/cache.rs
// The result cache sits on every search dispatch: a direct index into
// the LRU order panics the serving loop on an empty cache. Clippy's
// `indexing_slicing` does not see a `VecDeque` index; this rule must.

use std::collections::VecDeque;

fn peek_newest(order: &VecDeque<u64>) -> u64 {
    order[order.len() - 1]
}
