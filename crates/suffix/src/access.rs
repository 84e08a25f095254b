//! The suffix-tree traversal abstraction.
//!
//! OASIS (in `oasis-core`) is generic over [`SuffixTreeAccess`], so the same
//! search code runs against the in-memory [`crate::SuffixTree`] and against
//! the buffer-pool-backed disk tree in `oasis-storage`. The trait exposes
//! exactly the operations the paper's Algorithms 1–3 need: children of a
//! node, the incoming-arc label, node depth, and the leaf positions below a
//! node (for result reporting).

use oasis_bioseq::TERMINATOR;

/// Tag bit distinguishing leaf handles from internal handles.
const LEAF_BIT: u32 = 1 << 31;

/// A compact handle to a suffix-tree node.
///
/// * Internal nodes are identified by their index (in-memory node id or
///   on-disk BFS record number).
/// * Leaves are identified by the text position of the suffix they
///   represent — exactly the paper's leaf-array convention (§3.4: "the array
///   index of a node indicates the relevant offset in the symbol array").
///
/// The high bit tags the variant, which is why database texts are limited to
/// 2^31−1 symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle(u32);

impl NodeHandle {
    /// Handle for internal node `index`.
    pub fn internal(index: u32) -> Self {
        assert_eq!(index & LEAF_BIT, 0, "internal index overflows handle");
        NodeHandle(index)
    }

    /// Handle for the leaf of the suffix starting at text position `pos`.
    pub fn leaf(pos: u32) -> Self {
        assert_eq!(pos & LEAF_BIT, 0, "leaf position overflows handle");
        NodeHandle(pos | LEAF_BIT)
    }

    /// Is this a leaf handle?
    pub fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    /// The internal index or leaf text position.
    pub fn index(self) -> u32 {
        self.0 & !LEAF_BIT
    }
}

/// Read-only traversal interface over a generalized suffix tree.
///
/// Depths count symbols from the root, *including* the trailing terminator
/// on leaf arcs, so a leaf's depth equals its suffix length plus one.
/// `arc_*` methods take the parent's depth because arc labels are stored as
/// text ranges `[witness + parent_depth, witness + depth)` (the paper's
/// symbol-pointer representation) and handles do not record their parent.
///
/// The trait is **object-safe** (usable as `dyn SuffixTreeAccess`, e.g.
/// behind an `Arc` in `oasis-engine`) and requires [`Sync`]: every
/// implementation must tolerate concurrent `&self` traversal, because one
/// index is shared by many simultaneous queries. Both shipped
/// implementations qualify — the in-memory tree is plain immutable data,
/// and the disk tree serializes frame access inside its buffer pool.
pub trait SuffixTreeAccess: Sync {
    /// The root node.
    fn root(&self) -> NodeHandle;

    /// Total text length (symbols plus terminators).
    fn text_len(&self) -> u32;

    /// Number of internal nodes, root included.
    fn num_internal(&self) -> u32;

    /// Depth (path length from root) of the end of `h`'s incoming arc.
    fn depth(&self, h: NodeHandle) -> u32;

    /// Append all children of internal node `h` to `out` (cleared first).
    ///
    /// # Panics
    /// May panic if `h` is a leaf.
    fn children_into(&self, h: NodeHandle, out: &mut Vec<NodeHandle>);

    /// Copy up to `out.len()` symbols of `h`'s incoming arc label, starting
    /// `offset` symbols into the arc, given the parent's depth. Returns the
    /// number of symbols written (less than `out.len()` only at arc end).
    /// Terminators are reported as [`TERMINATOR`].
    ///
    /// A leaf arc ends with its suffix's terminator, so a reader may stop
    /// at that symbol instead of asking [`arc_len`](Self::arc_len) — which,
    /// for a leaf, searches the sequence starts for the end of its
    /// sequence. Every shipped substrate serves a leaf read from offset 0
    /// the same way, with [`fill_through_terminator`].
    fn arc_fill(&self, parent_depth: u32, h: NodeHandle, offset: u32, out: &mut [u8]) -> usize;

    /// Invoke `visit` with the text position of every leaf in `h`'s subtree
    /// (including `h` itself if it is a leaf).
    fn leaves_under(&self, h: NodeHandle, visit: &mut dyn FnMut(u32));

    /// Length of `h`'s incoming arc given the parent's depth.
    fn arc_len(&self, parent_depth: u32, h: NodeHandle) -> u32 {
        self.depth(h) - parent_depth
    }

    /// Convenience: collect the whole arc label into a fresh vector.
    fn arc_label(&self, parent_depth: u32, h: NodeHandle) -> Vec<u8> {
        let len = self.arc_len(parent_depth, h) as usize;
        let mut label = vec![0u8; len];
        let mut filled = 0usize;
        while filled < len {
            let got = self.arc_fill(parent_depth, h, filled as u32, &mut label[filled..]);
            assert!(got > 0, "arc_fill made no progress");
            filled += got;
        }
        label
    }

    /// Convenience: collect and sort all leaf positions below `h`.
    fn collect_leaves(&self, h: NodeHandle) -> Vec<u32> {
        let mut out = Vec::new();
        self.leaves_under(h, &mut |p| out.push(p));
        out.sort_unstable();
        out
    }

    /// Does the arc into `h` end with a terminator? True exactly for leaves.
    fn arc_ends_with_terminator(&self, parent_depth: u32, h: NodeHandle) -> bool {
        if !h.is_leaf() {
            return false;
        }
        let len = self.arc_len(parent_depth, h);
        let mut last = [0u8];
        self.arc_fill(parent_depth, h, len - 1, &mut last);
        last[0] == TERMINATOR
    }
}

/// Copy `src` into `out`, stopping after the first [`TERMINATOR`] or when
/// either runs out; returns the symbols written. Read from a leaf arc's
/// first symbol, this is the arc label up to and including the terminator
/// that ends it, with no lookup of where the sequence ends.
pub fn fill_through_terminator(src: &[u8], out: &mut [u8]) -> usize {
    let take = src.len().min(out.len());
    let take = src[..take]
        .iter()
        .position(|&s| s == TERMINATOR)
        .map_or(take, |end| end + 1);
    out[..take].copy_from_slice(&src[..take]);
    take
}

// Compile-time proof that the trait stays object-safe: a `&dyn` reference
// must remain a valid type (the engine layer shares `Arc<dyn
// SuffixTreeAccess>` substrates across worker threads).
const _OBJECT_SAFE: fn(&dyn SuffixTreeAccess) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let i = NodeHandle::internal(42);
        assert!(!i.is_leaf());
        assert_eq!(i.index(), 42);

        let l = NodeHandle::leaf(7);
        assert!(l.is_leaf());
        assert_eq!(l.index(), 7);

        assert_ne!(i, l);
        assert_ne!(NodeHandle::internal(7), NodeHandle::leaf(7));
    }

    #[test]
    fn fill_stops_after_the_first_terminator() {
        let src = [1, 2, TERMINATOR, 3, TERMINATOR];
        let mut out = [0u8; 8];
        assert_eq!(fill_through_terminator(&src, &mut out), 3);
        assert_eq!(&out[..3], &[1, 2, TERMINATOR]);
        // A short `out` or `src` bounds the copy before the terminator.
        assert_eq!(fill_through_terminator(&src, &mut out[..2]), 2);
        assert_eq!(fill_through_terminator(&src[..1], &mut out), 1);
    }

    #[test]
    fn handles_are_compact() {
        assert_eq!(std::mem::size_of::<NodeHandle>(), 4);
    }

    #[test]
    #[should_panic(expected = "overflows handle")]
    fn oversized_leaf_position_panics() {
        NodeHandle::leaf(1 << 31);
    }

    #[test]
    #[should_panic(expected = "overflows handle")]
    fn oversized_internal_index_panics() {
        NodeHandle::internal(u32::MAX);
    }
}
