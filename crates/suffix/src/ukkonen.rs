//! Ukkonen's online linear-time suffix-tree construction.
//!
//! The paper cites the classical in-memory construction algorithms
//! (McCreight, Ukkonen — its refs [25, 38]). This module is a test oracle
//! (compiled only under `#[cfg(test)]`): it shares no code with the
//! SA-IS → LCP → stack pipeline of [`crate::tree`], so structural agreement
//! between the two (asserted below) is strong evidence both are correct.
//!
//! Ukkonen builds the suffix tree of the *whole* concatenated text. Because
//! every separator rank is unique (see [`crate::text`]), no two suffixes
//! share a prefix that reaches a separator, so (a) branching never occurs
//! at or below a separator, (b) separator-initial suffixes hang directly
//! off the root. The generalized suffix tree is therefore obtained by
//! dropping those root leaves and letting leaf arcs end at their own
//! sequence's terminator — which the shared [`SuffixTree`] representation
//! already does by construction.

use std::collections::BTreeMap;

use oasis_bioseq::SequenceDatabase;

use crate::access::NodeHandle;
use crate::text::RankedText;
use crate::tree::SuffixTree;

/// One node of the under-construction tree; `start..end` label the incoming
/// edge (indices into the ranked text), `end == OPEN` marks a growing leaf.
struct UNode {
    start: usize,
    end: usize,
    /// Children keyed by the first rank of their edge (BTreeMap keeps them
    /// in lexicographic order for free).
    children: BTreeMap<u32, usize>,
    /// Suffix link; 0 (the root) doubles as "none".
    link: usize,
}

const OPEN: usize = usize::MAX;

struct Ukkonen<'t> {
    text: &'t [u32],
    nodes: Vec<UNode>,
    active_node: usize,
    active_edge: usize,
    active_length: usize,
    remainder: usize,
    position: usize,
}

impl<'t> Ukkonen<'t> {
    fn new(text: &'t [u32]) -> Self {
        Ukkonen {
            text,
            nodes: vec![UNode {
                start: 0,
                end: 0,
                children: BTreeMap::new(),
                link: 0,
            }],
            active_node: 0,
            active_edge: 0,
            active_length: 0,
            remainder: 0,
            position: 0,
        }
    }

    fn edge_len(&self, v: usize) -> usize {
        let n = &self.nodes[v];
        let end = if n.end == OPEN {
            self.position + 1
        } else {
            n.end
        };
        end - n.start
    }

    fn new_node(&mut self, start: usize, end: usize) -> usize {
        self.nodes.push(UNode {
            start,
            end,
            children: BTreeMap::new(),
            link: 0,
        });
        self.nodes.len() - 1
    }

    /// One phase of Ukkonen's algorithm: extend the implicit tree with
    /// `text[i]`.
    fn extend(&mut self, i: usize) {
        self.position = i;
        self.remainder += 1;
        let c = self.text[i];
        // Pending suffix-link source for this phase (0 = none).
        let mut need_link = 0usize;
        let add_link = |nodes: &mut Vec<UNode>, need: &mut usize, target: usize| {
            if *need != 0 {
                nodes[*need].link = target;
            }
            *need = target;
        };
        while self.remainder > 0 {
            if self.active_length == 0 {
                self.active_edge = i;
            }
            let first = self.text[self.active_edge];
            match self.nodes[self.active_node].children.get(&first).copied() {
                None => {
                    // Rule 2 (no edge): new leaf off the active node.
                    let leaf = self.new_node(i, OPEN);
                    self.nodes[self.active_node].children.insert(first, leaf);
                    let an = self.active_node;
                    add_link(&mut self.nodes, &mut need_link, an);
                }
                Some(next) => {
                    // Observation: walk down if the active length outgrows
                    // the edge.
                    let len = self.edge_len(next);
                    if self.active_length >= len {
                        self.active_node = next;
                        self.active_length -= len;
                        self.active_edge += len;
                        continue; // does not consume the remainder
                    }
                    if self.text[self.nodes[next].start + self.active_length] == c {
                        // Rule 3 (already present): showstopper.
                        self.active_length += 1;
                        let an = self.active_node;
                        add_link(&mut self.nodes, &mut need_link, an);
                        break;
                    }
                    // Rule 2 (split): cut the edge, add the new leaf.
                    let split_end = self.nodes[next].start + self.active_length;
                    let split = self.new_node(self.nodes[next].start, split_end);
                    self.nodes[self.active_node].children.insert(first, split);
                    let leaf = self.new_node(i, OPEN);
                    self.nodes[split].children.insert(c, leaf);
                    self.nodes[next].start = split_end;
                    let next_first = self.text[split_end];
                    self.nodes[split].children.insert(next_first, next);
                    add_link(&mut self.nodes, &mut need_link, split);
                }
            }
            self.remainder -= 1;
            if self.active_node == 0 && self.active_length > 0 {
                self.active_length -= 1;
                self.active_edge = i - self.remainder + 1;
            } else if self.active_node != 0 {
                self.active_node = self.nodes[self.active_node].link;
            }
        }
    }
}

/// Build the generalized suffix tree for `db` with Ukkonen's algorithm.
/// The result is structurally identical to [`SuffixTree::build`] (children
/// in lexicographic order, same node set, same leaf set).
pub fn build_ukkonen(db: &SequenceDatabase) -> SuffixTree {
    let ranked = RankedText::from_database(db);
    let text = ranked.ranks();
    let seq_starts: Vec<u32> = (0..db.num_sequences())
        .map(|i| db.seq_start(i))
        .chain(std::iter::once(db.text_len()))
        .collect();
    let mut tree = SuffixTree::from_raw(db.text().to_vec(), seq_starts);
    if text.is_empty() {
        return tree;
    }

    let mut uk = Ukkonen::new(text);
    for i in 0..text.len() {
        uk.extend(i);
    }
    let n = text.len();

    // --- convert into the compact representation -------------------------
    // Pre-order pass for depths, then post-order conversion so children are
    // converted before their parents.
    let mut order = Vec::with_capacity(uk.nodes.len());
    let mut depth = vec![0u32; uk.nodes.len()];
    {
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &child in uk.nodes[v].children.values() {
                let elen = if uk.nodes[child].end == OPEN {
                    n - uk.nodes[child].start
                } else {
                    uk.nodes[child].end - uk.nodes[child].start
                };
                depth[child] = depth[v] + elen as u32;
                stack.push(child);
            }
        }
    }

    /// Conversion state per Ukkonen node.
    enum Converted {
        /// A kept leaf: the suffix start position.
        Leaf(u32),
        /// A converted internal node: its index in the new tree.
        Internal(u32),
        /// A dropped separator-initial leaf.
        Pruned,
    }
    let mut converted: Vec<Option<Converted>> = (0..uk.nodes.len()).map(|_| None).collect();
    for &v in order.iter().rev() {
        let node = &uk.nodes[v];
        if node.end == OPEN {
            // Leaf for the suffix starting at n - depth.
            let p = n as u32 - depth[v];
            converted[v] = Some(if ranked.is_separator_at(p) {
                Converted::Pruned
            } else {
                Converted::Leaf(p)
            });
            continue;
        }
        let mut kids: Vec<NodeHandle> = Vec::new();
        for &child in node.children.values() {
            match converted[child].as_ref().expect("post-order") {
                Converted::Pruned => {}
                Converted::Leaf(p) => kids.push(NodeHandle::leaf(*p)),
                Converted::Internal(idx) => kids.push(NodeHandle::internal(*idx)),
            }
        }
        if v == 0 {
            tree.set_root_children(kids);
            converted[v] = Some(Converted::Internal(0));
        } else {
            debug_assert!(
                kids.len() >= 2,
                "pruning only removes root-level separator leaves"
            );
            let witness = match kids[0] {
                k if k.is_leaf() => k.index(),
                k => tree.internal_witness(k.index()),
            };
            let idx = tree.push_internal(depth[v], witness, kids);
            converted[v] = Some(Converted::Internal(idx));
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::SuffixTreeAccess;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, Sequence};
    use proptest::prelude::*;

    fn db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    /// Canonical form of a tree: the sorted set of (path-label, is-leaf).
    fn canon(tree: &SuffixTree) -> Vec<(Vec<u8>, bool)> {
        let mut out = Vec::new();
        let mut stack = vec![(tree.root(), Vec::new())];
        let mut kids = Vec::new();
        while let Some((h, prefix)) = stack.pop() {
            if h.is_leaf() {
                out.push((prefix, true));
                continue;
            }
            if h != tree.root() {
                out.push((prefix.clone(), false));
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
    fn figure2_matches_sa_builder() {
        let d = db(&["AGTACGCCTAG"]);
        let sa_tree = SuffixTree::build(&d);
        let uk_tree = build_ukkonen(&d);
        assert_eq!(uk_tree.num_leaves(), sa_tree.num_leaves());
        assert_eq!(
            SuffixTreeAccess::num_internal(&uk_tree),
            SuffixTreeAccess::num_internal(&sa_tree)
        );
        assert_eq!(canon(&uk_tree), canon(&sa_tree));
    }

    #[test]
    fn multi_sequence_matches_sa_builder() {
        for seqs in [
            vec!["ACGT", "CGTA", "GT"],
            vec!["AAAA", "AAA", "AA"],
            vec!["ACGACGACG"],
            vec!["A", "C", "G", "T"],
            vec!["ACACAC", "CACACA", "TTTT"],
            vec!["AGTACGCCTAG", "AGTACGCCTAG"],
        ] {
            let d = db(&seqs);
            let sa_tree = SuffixTree::build(&d);
            let uk_tree = build_ukkonen(&d);
            assert_eq!(canon(&uk_tree), canon(&sa_tree), "seqs {seqs:?}");
        }
    }

    #[test]
    fn pseudorandom_matches_sa_builder() {
        let mut state = 0xFEED5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let nseq = 1 + (next() % 5) as usize;
            let seqs: Vec<String> = (0..nseq)
                .map(|_| {
                    let len = 1 + (next() % 40) as usize;
                    (0..len)
                        .map(|_| ['A', 'C', 'G', 'T'][(next() % 4) as usize])
                        .collect()
                })
                .collect();
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let d = db(&refs);
            let sa_tree = SuffixTree::build(&d);
            let uk_tree = build_ukkonen(&d);
            assert_eq!(canon(&uk_tree), canon(&sa_tree), "trial {trial}: {seqs:?}");
        }
    }

    #[test]
    fn empty_database() {
        let d = DatabaseBuilder::new(Alphabet::dna()).finish();
        let t = build_ukkonen(&d);
        assert_eq!(t.num_leaves(), 0);
        assert_eq!(SuffixTreeAccess::num_internal(&t), 1);
    }

    #[test]
    fn search_works_on_ukkonen_tree() {
        let d = db(&["AGTACGCCTAG"]);
        let t = build_ukkonen(&d);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        assert_eq!(crate::search::occurrences(&t, &q), vec![2]);
    }

    #[test]
    fn ukkonen_on_paper_example() {
        let d = db(&["AGTACGCCTAG"]);
        let uk = build_ukkonen(&d);
        assert_eq!(uk.num_leaves(), 11);
        assert_eq!(SuffixTreeAccess::num_internal(&uk), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ukkonen_equals_sa_builder(
            seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..8),
        ) {
            let mut b = DatabaseBuilder::new(Alphabet::dna());
            for (i, codes) in seqs.iter().enumerate() {
                b.push(Sequence::from_codes(format!("s{i}"), codes.clone())).unwrap();
            }
            let d = b.finish();
            let sa_tree = SuffixTree::build(&d);
            let uk_tree = build_ukkonen(&d);
            prop_assert_eq!(canon(&sa_tree), canon(&uk_tree));
            prop_assert_eq!(sa_tree.num_leaves(), uk_tree.num_leaves());
        }
    }

    #[test]
    fn protein_alphabet_supported() {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        b.push_str("p", "MKTAYIAKQRMKTA").unwrap();
        let d = b.finish();
        let sa_tree = SuffixTree::build(&d);
        let uk_tree = build_ukkonen(&d);
        assert_eq!(canon(&uk_tree), canon(&sa_tree));
    }
}
