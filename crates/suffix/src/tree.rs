//! The in-memory compact generalized suffix tree (§2.3 of the paper).
//!
//! Built in one linear pass over the suffix array + LCP array with a stack:
//! every LCP value that exceeds the depth of the current right-most path
//! node splits an edge into a new branching node; leaves are attached in
//! suffix-array order, so children end up in lexicographic order.
//!
//! The tree is *compact* (PATRICIA): every node is the root, a branching
//! node, or a leaf. Suffixes beginning at terminators are excluded — they
//! carry no alignment information. Leaf arcs are truncated at (and include)
//! their own sequence's terminator, which is what makes the tree
//! "generalized": no path crosses a sequence boundary.

use oasis_bioseq::SequenceDatabase;

use crate::access::{fill_through_terminator, NodeHandle, SuffixTreeAccess};
use crate::lcp::lcp_kasai;
use crate::sais::suffix_array;
use crate::text::RankedText;

/// One internal node: its path depth, a *witness* text position whose suffix
/// realizes the node's path, and its children range in the flattened child
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    depth: u32,
    witness: u32,
    child_start: u32,
    child_count: u32,
}

/// In-memory generalized suffix tree over a [`SequenceDatabase`].
#[derive(Debug, Clone)]
pub struct SuffixTree {
    /// Copy of the database text (codes + terminators) for arc labels.
    text: Vec<u8>,
    /// Sequence start offsets plus a final sentinel (== text length).
    seq_starts: Vec<u32>,
    /// Internal nodes; index 0 is the root.
    nodes: Vec<Node>,
    /// Flattened children lists, in lexicographic order per node.
    children: Vec<NodeHandle>,
    num_leaves: u32,
}

impl SuffixTree {
    /// Build the tree for `db` with the linear-time SA-IS pipeline.
    pub fn build(db: &SequenceDatabase) -> Self {
        let ranked = RankedText::from_database(db);
        let sa = suffix_array(ranked.ranks());
        let lcp = lcp_kasai(ranked.ranks(), &sa);
        Self::from_sa_lcp(db, &ranked, &sa, &lcp)
    }

    /// Build from a precomputed suffix array and LCP array over the ranked
    /// text: [`SuffixTree::build`] passes SA-IS + Kasai, and tests pass
    /// the prefix-doubling oracle's suffix array.
    pub fn from_sa_lcp(
        db: &SequenceDatabase,
        ranked: &RankedText,
        sa: &[u32],
        lcp: &[u32],
    ) -> Self {
        assert_eq!(sa.len(), ranked.len());
        let seq_starts: Vec<u32> = (0..db.num_sequences())
            .map(|i| db.seq_start(i))
            .chain(std::iter::once(db.text_len()))
            .collect();
        let suffix_len = |pos: u32| -> u32 {
            // Suffix runs to its sequence's terminator, inclusive.
            let idx = seq_starts.partition_point(|&s| s <= pos);
            seq_starts[idx] - pos
        };

        // Separator-initial suffixes occupy a prefix block of the SA because
        // separator ranks are below all residue ranks.
        let first_real = sa
            .iter()
            .position(|&p| !ranked.is_separator_at(p))
            .unwrap_or(sa.len());
        let sa = &sa[first_real..];
        let lcp = &lcp[first_real..];
        debug_assert!(lcp.first().is_none_or(|&l| l == 0));

        struct TmpNode {
            depth: u32,
            witness: u32,
            children: Vec<NodeHandle>,
        }
        let mut tmp = vec![TmpNode {
            depth: 0,
            witness: 0,
            children: Vec::new(),
        }];
        let m = sa.len();
        if m > 0 {
            let mut stack: Vec<usize> = vec![0];
            let mut pending = NodeHandle::leaf(sa[0]);
            let mut pending_depth = suffix_len(sa[0]);
            for i in 1..m {
                let l = lcp[i];
                loop {
                    let top = *stack.last().expect("root never popped");
                    if tmp[top].depth <= l {
                        break;
                    }
                    stack.pop();
                    tmp[top].children.push(pending);
                    pending = NodeHandle::internal(top as u32);
                    pending_depth = tmp[top].depth;
                }
                let top = *stack.last().expect("root remains");
                if tmp[top].depth == l {
                    tmp[top].children.push(pending);
                } else {
                    // Split: top.depth < l < pending_depth.
                    debug_assert!(tmp[top].depth < l && l < pending_depth);
                    let v = tmp.len();
                    tmp.push(TmpNode {
                        depth: l,
                        witness: sa[i],
                        children: vec![pending],
                    });
                    stack.push(v);
                }
                pending = NodeHandle::leaf(sa[i]);
                pending_depth = suffix_len(sa[i]);
            }
            while let Some(top) = stack.pop() {
                tmp[top].children.push(pending);
                pending = NodeHandle::internal(top as u32);
            }
        }

        // Flatten.
        let mut nodes = Vec::with_capacity(tmp.len());
        let mut children = Vec::new();
        for t in &tmp {
            let child_start = children.len() as u32;
            children.extend_from_slice(&t.children);
            nodes.push(Node {
                depth: t.depth,
                witness: t.witness,
                child_start,
                child_count: t.children.len() as u32,
            });
        }
        SuffixTree {
            text: db.text().to_vec(),
            seq_starts,
            nodes,
            children,
            num_leaves: m as u32,
        }
    }

    /// Number of leaves (== number of indexed suffixes == residue count).
    pub fn num_leaves(&self) -> u32 {
        self.num_leaves
    }

    /// An empty tree shell (root only) for [`crate::rebuild`]'s assembler
    /// and the Ukkonen test oracle. `seq_starts` must include the trailing
    /// sentinel.
    pub(crate) fn from_raw(text: Vec<u8>, seq_starts: Vec<u32>) -> Self {
        SuffixTree {
            text,
            seq_starts,
            nodes: vec![Node {
                depth: 0,
                witness: 0,
                child_start: 0,
                child_count: 0,
            }],
            children: Vec::new(),
            num_leaves: 0,
        }
    }

    /// Append an assembled internal node. Returns its index. Leaf
    /// children increment the leaf count.
    pub(crate) fn push_internal(&mut self, depth: u32, witness: u32, kids: Vec<NodeHandle>) -> u32 {
        let child_start = self.children.len() as u32;
        let child_count = kids.len() as u32;
        self.num_leaves += kids.iter().filter(|k| k.is_leaf()).count() as u32;
        self.children.extend(kids);
        self.nodes.push(Node {
            depth,
            witness,
            child_start,
            child_count,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Set the root's children (assembly; call once).
    pub(crate) fn set_root_children(&mut self, kids: Vec<NodeHandle>) {
        assert_eq!(self.nodes[0].child_count, 0, "root children already set");
        let child_start = self.children.len() as u32;
        self.nodes[0].child_start = child_start;
        self.nodes[0].child_count = kids.len() as u32;
        self.num_leaves += kids.iter().filter(|k| k.is_leaf()).count() as u32;
        self.children.extend(kids);
    }

    /// Children of internal node `idx` as a slice.
    pub fn children_of(&self, idx: u32) -> &[NodeHandle] {
        let n = &self.nodes[idx as usize];
        &self.children[n.child_start as usize..(n.child_start + n.child_count) as usize]
    }

    /// Depth of internal node `idx`.
    pub fn internal_depth(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].depth
    }

    /// Witness text position of internal node `idx` (a position whose suffix
    /// realizes the node's path label).
    pub fn internal_witness(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].witness
    }

    /// Suffix length (terminator included) of the suffix at `pos`.
    pub fn suffix_len(&self, pos: u32) -> u32 {
        let idx = self.seq_starts.partition_point(|&s| s <= pos);
        self.seq_starts[idx] - pos
    }

    /// The sequence-start offsets (with the trailing sentinel), as stored.
    pub fn seq_starts(&self) -> &[u32] {
        &self.seq_starts
    }

    /// The raw text the tree indexes (codes + terminators).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Decode the path label of a node (for tests and debugging).
    pub fn path_label(&self, h: NodeHandle) -> Vec<u8> {
        let depth = self.depth(h);
        let witness = if h.is_leaf() {
            h.index()
        } else {
            self.nodes[h.index() as usize].witness
        };
        self.text[witness as usize..(witness + depth) as usize].to_vec()
    }
}

impl SuffixTreeAccess for SuffixTree {
    fn root(&self) -> NodeHandle {
        NodeHandle::internal(0)
    }

    fn text_len(&self) -> u32 {
        self.text.len() as u32
    }

    fn num_internal(&self) -> u32 {
        self.nodes.len() as u32
    }

    fn depth(&self, h: NodeHandle) -> u32 {
        if h.is_leaf() {
            self.suffix_len(h.index())
        } else {
            self.nodes[h.index() as usize].depth
        }
    }

    fn children_into(&self, h: NodeHandle, out: &mut Vec<NodeHandle>) {
        assert!(!h.is_leaf(), "leaves have no children");
        out.clear();
        out.extend_from_slice(self.children_of(h.index()));
    }

    fn arc_fill(&self, parent_depth: u32, h: NodeHandle, offset: u32, out: &mut [u8]) -> usize {
        if h.is_leaf() && offset == 0 {
            let start = (h.index() + parent_depth) as usize;
            return fill_through_terminator(&self.text[start..], out);
        }
        let witness = if h.is_leaf() {
            h.index()
        } else {
            self.nodes[h.index() as usize].witness
        };
        let depth = self.depth(h);
        debug_assert!(parent_depth < depth, "arc must be non-empty");
        let start = witness + parent_depth + offset;
        let end = witness + depth;
        if start >= end {
            return 0;
        }
        let take = ((end - start) as usize).min(out.len());
        out[..take].copy_from_slice(&self.text[start as usize..start as usize + take]);
        take
    }

    fn leaves_under(&self, h: NodeHandle, visit: &mut dyn FnMut(u32)) {
        if h.is_leaf() {
            visit(h.index());
            return;
        }
        let mut stack = vec![h.index()];
        while let Some(idx) = stack.pop() {
            for &c in self.children_of(idx) {
                if c.is_leaf() {
                    visit(c.index());
                } else {
                    stack.push(c.index());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, TERMINATOR};

    fn db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    /// Collect every leaf's full path label by walking arcs from the root —
    /// exercises children_into/arc_fill rather than path_label.
    fn all_leaf_paths(tree: &SuffixTree) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut stack = vec![(tree.root(), Vec::new())];
        let mut kids = Vec::new();
        while let Some((h, prefix)) = stack.pop() {
            if h.is_leaf() {
                out.push(prefix);
                continue;
            }
            tree.children_into(h, &mut kids);
            let depth = tree.depth(h);
            for &c in kids.iter() {
                let mut p = prefix.clone();
                p.extend(tree.arc_label(depth, c));
                stack.push((c, p));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn figure2_tree_shape() {
        // The paper's Figure 2: suffix tree of AGTACGCCTAG.
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        // 11 leaves (one per residue suffix).
        assert_eq!(tree.num_leaves(), 11);
        // Root + 5 branching nodes: A, AG, C, G, TA.
        assert_eq!(tree.num_internal(), 6);
        let mut depths: Vec<u32> = (1..tree.num_internal())
            .map(|i| tree.internal_depth(i))
            .collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![1, 1, 1, 2, 2]);

        // Internal path labels are exactly {A, AG, C, G, TA}.
        let alpha = Alphabet::dna();
        let mut labels: Vec<String> = (1..tree.num_internal())
            .map(|i| alpha.decode_all(&tree.path_label(NodeHandle::internal(i))))
            .collect();
        labels.sort();
        assert_eq!(labels, vec!["A", "AG", "C", "G", "TA"]);
    }

    #[test]
    fn figure2_paths_match_paper() {
        // path(8L) = TAG$ and path(5N) = AG in the paper's notation.
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        let alpha = Alphabet::dna();
        let leaf8 = NodeHandle::leaf(8);
        assert_eq!(alpha.decode_all(&tree.path_label(leaf8)), "TAG$");
        assert_eq!(tree.depth(leaf8), 4);
    }

    #[test]
    fn every_suffix_is_a_leaf_path() {
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        let mut expect: Vec<Vec<u8>> = (0..11u32)
            .map(|p| d.text()[p as usize..].to_vec())
            .collect();
        expect.sort();
        assert_eq!(all_leaf_paths(&tree), expect);
    }

    #[test]
    fn multi_sequence_paths_truncate_at_own_terminator() {
        let d = db(&["ACGT", "CGTA", "GT"]);
        let tree = SuffixTree::build(&d);
        assert_eq!(tree.num_leaves(), 10);
        let mut expect: Vec<Vec<u8>> = Vec::new();
        for s in d.sequences() {
            let term = d.seq_terminator(s.id);
            for p in s.start..term {
                expect.push(d.text()[p as usize..=term as usize].to_vec());
            }
        }
        expect.sort();
        assert_eq!(all_leaf_paths(&tree), expect);
        // No internal node's path contains a terminator.
        for i in 0..tree.num_internal() {
            let label = tree.path_label(NodeHandle::internal(i));
            assert!(!label.contains(&TERMINATOR), "node {i}");
        }
    }

    #[test]
    fn identical_sequences_share_structure() {
        let d = db(&["ACG", "ACG"]);
        let tree = SuffixTree::build(&d);
        assert_eq!(tree.num_leaves(), 6);
        // Leaves 0 and 4 both spell ACG$; they hang off a shared path "ACG".
        let leaves = tree.collect_leaves(tree.root());
        assert_eq!(leaves, vec![0, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn leaves_under_subtree() {
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        // Find the internal node with path "TA": leaves below are 2 and 8.
        let alpha = Alphabet::dna();
        let ta = (1..tree.num_internal())
            .map(NodeHandle::internal)
            .find(|&h| alpha.decode_all(&tree.path_label(h)) == "TA")
            .expect("TA node exists");
        assert_eq!(tree.collect_leaves(ta), vec![2, 8]);
    }

    #[test]
    fn arc_fill_chunked_reads() {
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        // Leaf 0's arc from the root spells the entire suffix.
        let leaf0 = NodeHandle::leaf(0);
        // Actually leaf 0 hangs under "AG"; read its arc from parent depth 2.
        let full = tree.arc_label(2, leaf0);
        let alpha = Alphabet::dna();
        assert_eq!(alpha.decode_all(&full), "TACGCCTAG$");
        // Chunked reads agree with one-shot reads.
        let mut buf = [0u8; 3];
        let mut collected = Vec::new();
        let mut off = 0u32;
        loop {
            let got = tree.arc_fill(2, leaf0, off, &mut buf);
            if got == 0 {
                break;
            }
            collected.extend_from_slice(&buf[..got]);
            off += got as u32;
        }
        assert_eq!(collected, full);
    }

    #[test]
    fn empty_database_tree() {
        let d = DatabaseBuilder::new(Alphabet::dna()).finish();
        let tree = SuffixTree::build(&d);
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.num_internal(), 1); // just the root
        assert!(tree.children_of(0).is_empty());
    }

    #[test]
    fn single_symbol_sequence() {
        let d = db(&["A"]);
        let tree = SuffixTree::build(&d);
        assert_eq!(tree.num_leaves(), 1);
        let leaves = tree.collect_leaves(tree.root());
        assert_eq!(leaves, vec![0]);
        let alpha = Alphabet::dna();
        assert_eq!(
            alpha.decode_all(&tree.path_label(NodeHandle::leaf(0))),
            "A$"
        );
    }

    #[test]
    fn from_sa_lcp_with_doubling_matches_build() {
        let d = db(&["ACGTACGTTGCA", "GTACCA"]);
        let ranked = RankedText::from_database(&d);
        let sa = crate::doubling::suffix_array_doubling(ranked.ranks());
        let lcp = lcp_kasai(ranked.ranks(), &sa);
        let via_doubling = SuffixTree::from_sa_lcp(&d, &ranked, &sa, &lcp);
        let via_sais = SuffixTree::build(&d);
        assert_eq!(all_leaf_paths(&via_doubling), all_leaf_paths(&via_sais));
        assert_eq!(via_doubling.num_internal(), via_sais.num_internal());
    }

    #[test]
    fn trait_default_methods() {
        let d = db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&d);
        // arc_ends_with_terminator: true exactly for leaf arcs.
        let mut kids = Vec::new();
        tree.children_into(tree.root(), &mut kids);
        for &c in &kids {
            assert_eq!(tree.arc_ends_with_terminator(0, c), c.is_leaf(), "{c:?}");
        }
        // arc_len equals depth delta.
        for &c in &kids {
            assert_eq!(tree.arc_len(0, c), tree.depth(c));
        }
        // collect_leaves is sorted and complete at the root.
        let leaves = tree.collect_leaves(tree.root());
        assert!(leaves.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(leaves.len() as u32, tree.num_leaves());
    }

    #[test]
    fn protein_alphabet_tree() {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        b.push_str("p", "MKTAYIAKQR").unwrap();
        let d = b.finish();
        let tree = SuffixTree::build(&d);
        assert_eq!(tree.num_leaves(), 10);
        let mut expect: Vec<Vec<u8>> = (0..10u32)
            .map(|p| d.text()[p as usize..].to_vec())
            .collect();
        expect.sort();
        assert_eq!(all_leaf_paths(&tree), expect);
    }
}
