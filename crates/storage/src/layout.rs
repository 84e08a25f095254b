//! The paper's on-disk suffix-tree representation (§3.4).
//!
//! The tree is stored as three arrays plus metadata, each blocked
//! independently:
//!
//! * **Symbols** — the database text (residue codes + terminators), "simply
//!   broken down into chunks that fit into a disk block".
//! * **Internal nodes** — fixed 16-byte records "traversed in a level-first
//!   order, and stored sequentially on disk", so all siblings are adjacent.
//!   Each record stores the node depth, a symbol-array pointer for the
//!   incoming arc ("the length of the arc can be determined by subtracting
//!   the depth of the parent node"), a first-child pointer, and a
//!   last-sibling flag.
//! * **Leaves** — 4-byte records where "the array index of a node indicates
//!   the relevant offset in the symbol array"; leaves of one parent are
//!   chained through explicit right-sibling pointers because they cannot be
//!   clustered.
//!
//! [`DiskTreeBuilder`] serializes an in-memory [`SuffixTree`] into this
//! format; [`DiskSuffixTree`] implements [`SuffixTreeAccess`] directly over
//! a buffer pool, so OASIS runs unchanged against the disk image.

use std::io::Write;
use std::path::Path;

use oasis_suffix::{NodeHandle, SuffixTree, SuffixTreeAccess};

use crate::device::{BlockDevice, MemDevice};
use crate::pool::{BufferPool, Region};

pub(crate) const MAGIC: &[u8; 8] = b"OASISTR1";
pub(crate) const NONE: u32 = u32::MAX;
pub(crate) const HEADER_LEN: usize = 64;
pub(crate) const INTERNAL_REC: usize = 16;
pub(crate) const LAST_SIBLING: u32 = 1 << 31;

/// Space accounting for a serialized index, for the paper's
/// space-utilization table (§4.2: 12.5 bytes per symbol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageStats {
    /// Total image size in bytes (blocks, including padding).
    pub total_bytes: u64,
    /// Bytes in the symbols region.
    pub symbol_bytes: u64,
    /// Bytes in the internal-node region.
    pub internal_bytes: u64,
    /// Bytes in the leaf region.
    pub leaf_bytes: u64,
    /// Bytes in header + metadata.
    pub meta_bytes: u64,
    /// Database residue count (terminators excluded).
    pub residues: u64,
}

impl ImageStats {
    /// Index bytes per database symbol — the paper's space metric.
    pub fn bytes_per_symbol(&self) -> f64 {
        if self.residues == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.residues as f64
        }
    }
}

/// Serializer from [`SuffixTree`] to the on-disk image.
#[derive(Debug, Clone, Copy)]
pub struct DiskTreeBuilder {
    /// Block size in bytes; must be a positive multiple of 16. The paper
    /// uses 2 KB.
    pub block_size: usize,
}

impl Default for DiskTreeBuilder {
    fn default() -> Self {
        DiskTreeBuilder { block_size: 2048 }
    }
}

impl DiskTreeBuilder {
    /// Builder with an explicit block size.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(
            block_size >= 64 && block_size.is_multiple_of(16),
            "block size must be >= 64 and a multiple of 16"
        );
        DiskTreeBuilder { block_size }
    }

    /// Serialize `tree` into a fresh image.
    pub fn build_image(&self, tree: &SuffixTree) -> (Vec<u8>, ImageStats) {
        let bs = self.block_size;
        assert!(bs >= 64 && bs.is_multiple_of(16), "invalid block size");
        let text = tree.text();
        let text_len = text.len() as u32;
        let num_internal = tree.num_internal();
        let seq_starts = tree.seq_starts();
        let num_seqs = (seq_starts.len() - 1) as u32;

        // --- assign BFS (level-first) ids to internal nodes ----------------
        let mut bfs_order: Vec<u32> = Vec::with_capacity(num_internal as usize);
        let mut new_id = vec![NONE; num_internal as usize];
        bfs_order.push(0);
        new_id[0] = 0;
        let mut next = 1u32;
        let mut qi = 0usize;
        while qi < bfs_order.len() {
            let old = bfs_order[qi];
            qi += 1;
            for &c in tree.children_of(old) {
                if !c.is_leaf() {
                    new_id[c.index() as usize] = next;
                    bfs_order.push(c.index());
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next, num_internal);

        // --- build leaf sibling chains -------------------------------------
        let mut rsib = vec![NONE; text.len()];
        let mut first_leaf = vec![NONE; num_internal as usize]; // by old id
        for &old in &bfs_order {
            let mut prev: Option<u32> = None;
            for &c in tree.children_of(old) {
                if c.is_leaf() {
                    let pos = c.index();
                    match prev {
                        None => first_leaf[old as usize] = pos,
                        Some(p) => rsib[p as usize] = pos,
                    }
                    prev = Some(pos);
                }
            }
        }

        // --- region layout --------------------------------------------------
        let blocks_for = |bytes: usize| bytes.div_ceil(bs) as u64;
        let meta_bytes = (num_seqs as usize + 1) * 4;
        let header_blocks = blocks_for(HEADER_LEN);
        let meta_blocks = blocks_for(meta_bytes);
        let symbol_blocks = blocks_for(text.len());
        let internal_blocks = blocks_for(num_internal as usize * INTERNAL_REC);
        let leaf_blocks = blocks_for(text.len() * 4);

        let meta_start = header_blocks;
        let symbols_start = meta_start + meta_blocks;
        let internal_start = symbols_start + symbol_blocks;
        let leaves_start = internal_start + internal_blocks;
        let total_blocks = leaves_start + leaf_blocks;

        let mut image = vec![0u8; (total_blocks as usize) * bs];

        // --- header ----------------------------------------------------------
        {
            let h = &mut image[..HEADER_LEN];
            h[0..8].copy_from_slice(MAGIC);
            h[8..12].copy_from_slice(&(bs as u32).to_le_bytes());
            h[12..16].copy_from_slice(&text_len.to_le_bytes());
            h[16..20].copy_from_slice(&num_internal.to_le_bytes());
            h[20..24].copy_from_slice(&num_seqs.to_le_bytes());
            h[24..32].copy_from_slice(&meta_start.to_le_bytes());
            h[32..40].copy_from_slice(&symbols_start.to_le_bytes());
            h[40..48].copy_from_slice(&internal_start.to_le_bytes());
            h[48..56].copy_from_slice(&leaves_start.to_le_bytes());
            h[56..64].copy_from_slice(&total_blocks.to_le_bytes());
        }

        // --- metadata: sequence starts ---------------------------------------
        {
            let base = (meta_start as usize) * bs;
            for (i, &s) in seq_starts.iter().enumerate() {
                image[base + i * 4..base + i * 4 + 4].copy_from_slice(&s.to_le_bytes());
            }
        }

        // --- symbols -----------------------------------------------------------
        image[(symbols_start as usize) * bs..(symbols_start as usize) * bs + text.len()]
            .copy_from_slice(text);

        // --- internal nodes ------------------------------------------------------
        {
            let base = (internal_start as usize) * bs;
            for (new, &old) in bfs_order.iter().enumerate() {
                // First internal child's new id, if any.
                let first_internal = tree
                    .children_of(old)
                    .iter()
                    .find(|c| !c.is_leaf())
                    .map_or(NONE, |c| new_id[c.index() as usize]);
                let depth = tree.internal_depth(old);
                assert!(depth < LAST_SIBLING, "depth overflows record");
                let rec = base + new * INTERNAL_REC;
                image[rec..rec + 4].copy_from_slice(&depth.to_le_bytes());
                image[rec + 4..rec + 8].copy_from_slice(&tree.internal_witness(old).to_le_bytes());
                image[rec + 8..rec + 12].copy_from_slice(&first_internal.to_le_bytes());
                image[rec + 12..rec + 16].copy_from_slice(&first_leaf[old as usize].to_le_bytes());
            }
            // Second pass: set the last-sibling flags. Records are all
            // written now, so the flag can no longer be clobbered.
            let mut set_flag = |id: u32| {
                let rec = base + id as usize * INTERNAL_REC;
                let mut d = u32::from_le_bytes(image[rec..rec + 4].try_into().unwrap());
                d |= LAST_SIBLING;
                image[rec..rec + 4].copy_from_slice(&d.to_le_bytes());
            };
            set_flag(0); // the root has no siblings
            for &old in &bfs_order {
                let last_internal = tree.children_of(old).iter().rfind(|c| !c.is_leaf());
                if let Some(c) = last_internal {
                    set_flag(new_id[c.index() as usize]);
                }
            }
        }

        // --- leaves ---------------------------------------------------------------
        {
            let base = (leaves_start as usize) * bs;
            for (pos, &sib) in rsib.iter().enumerate() {
                image[base + pos * 4..base + pos * 4 + 4].copy_from_slice(&sib.to_le_bytes());
            }
        }

        let stats = ImageStats {
            total_bytes: image.len() as u64,
            symbol_bytes: symbol_blocks * bs as u64,
            internal_bytes: internal_blocks * bs as u64,
            leaf_bytes: leaf_blocks * bs as u64,
            meta_bytes: (header_blocks + meta_blocks) * bs as u64,
            residues: (text.len() as u64) - num_seqs as u64,
        };
        (image, stats)
    }

    /// Serialize `tree` to a file.
    pub fn write_file(
        &self,
        tree: &SuffixTree,
        path: impl AsRef<Path>,
    ) -> std::io::Result<ImageStats> {
        let (image, stats) = self.build_image(tree);
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(&image)?;
        f.flush()?;
        Ok(stats)
    }
}

/// Problems opening a disk image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The magic bytes did not match.
    BadMagic,
    /// Header block size disagrees with the device's block size.
    BlockSizeMismatch {
        /// Block size recorded in the header.
        header: u32,
        /// Block size of the device.
        device: u32,
    },
    /// Image is shorter than the header claims.
    Truncated,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadMagic => write!(f, "not an OASIS index (bad magic)"),
            LayoutError::BlockSizeMismatch { header, device } => {
                write!(f, "index block size {header} != device block size {device}")
            }
            LayoutError::Truncated => write!(f, "index image is truncated"),
        }
    }
}

impl std::error::Error for LayoutError {}

#[derive(Debug, Clone, Copy)]
struct InternalRec {
    depth: u32,
    last_sibling: bool,
    witness: u32,
    first_internal_child: u32,
    first_leaf_child: u32,
}

/// The disk-resident generalized suffix tree: the paper's §3.4 layout read
/// through a clock buffer pool.
pub struct DiskSuffixTree<D: BlockDevice> {
    pool: BufferPool<D>,
    block_size: usize,
    text_len: u32,
    num_internal: u32,
    symbols_start: u64,
    internal_start: u64,
    leaves_start: u64,
    /// Sequence boundaries, loaded once at open (small: 4 bytes/sequence).
    seq_starts: Vec<u32>,
}

impl<D: BlockDevice> std::fmt::Debug for DiskSuffixTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskSuffixTree")
            .field("block_size", &self.block_size)
            .field("text_len", &self.text_len)
            .field("num_internal", &self.num_internal)
            .field("num_seqs", &(self.seq_starts.len().saturating_sub(1)))
            .finish_non_exhaustive()
    }
}

impl DiskSuffixTree<MemDevice> {
    /// Open an in-memory image with a pool of `pool_bytes`.
    pub fn open_image(
        image: Vec<u8>,
        block_size: usize,
        pool_bytes: usize,
    ) -> Result<Self, LayoutError> {
        Self::open(MemDevice::new(image, block_size), pool_bytes)
    }
}

impl<D: BlockDevice> DiskSuffixTree<D> {
    /// Open a device containing a serialized index.
    pub fn open(device: D, pool_bytes: usize) -> Result<Self, LayoutError> {
        let bs = device.block_size();
        if device.num_blocks() == 0 {
            return Err(LayoutError::Truncated);
        }
        let pool = BufferPool::with_bytes(device, pool_bytes);
        let header = pool.read(0, Region::Meta, |b| b[..HEADER_LEN].to_vec());
        if &header[0..8] != MAGIC {
            return Err(LayoutError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
        let header_bs = u32_at(8);
        if header_bs as usize != bs {
            return Err(LayoutError::BlockSizeMismatch {
                header: header_bs,
                device: bs as u32,
            });
        }
        let text_len = u32_at(12);
        let num_internal = u32_at(16);
        let num_seqs = u32_at(20);
        let meta_start = u64_at(24);
        let symbols_start = u64_at(32);
        let internal_start = u64_at(40);
        let leaves_start = u64_at(48);
        let total_blocks = u64_at(56);
        if pool.device().num_blocks() < total_blocks {
            return Err(LayoutError::Truncated);
        }

        // Load sequence starts eagerly.
        let mut seq_starts = Vec::with_capacity(num_seqs as usize + 1);
        let per_block = bs / 4;
        for i in 0..=num_seqs as usize {
            let block = meta_start + (i / per_block) as u64;
            let off = (i % per_block) * 4;
            let v = pool.read(block, Region::Meta, |b| {
                u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
            });
            seq_starts.push(v);
        }

        Ok(DiskSuffixTree {
            pool,
            block_size: bs,
            text_len,
            num_internal,
            symbols_start,
            internal_start,
            leaves_start,
            seq_starts,
        })
    }

    /// The buffer pool (for statistics and cache control).
    pub fn pool(&self) -> &BufferPool<D> {
        &self.pool
    }

    /// Suffix length (terminator included) of the suffix at `pos`.
    pub fn suffix_len(&self, pos: u32) -> u32 {
        let idx = self.seq_starts.partition_point(|&s| s <= pos);
        self.seq_starts[idx] - pos
    }

    fn internal_rec(&self, idx: u32) -> InternalRec {
        debug_assert!(idx < self.num_internal, "internal index out of range");
        let per_block = self.block_size / INTERNAL_REC;
        let block = self.internal_start + (idx as usize / per_block) as u64;
        let off = (idx as usize % per_block) * INTERNAL_REC;
        self.pool.read(block, Region::Internal, |b| {
            let u32_at = |o: usize| u32::from_le_bytes(b[off + o..off + o + 4].try_into().unwrap());
            let d = u32_at(0);
            InternalRec {
                depth: d & !LAST_SIBLING,
                last_sibling: d & LAST_SIBLING != 0,
                witness: u32_at(4),
                first_internal_child: u32_at(8),
                first_leaf_child: u32_at(12),
            }
        })
    }

    fn leaf_rsib(&self, pos: u32) -> u32 {
        let per_block = self.block_size / 4;
        let block = self.leaves_start + (pos as usize / per_block) as u64;
        let off = (pos as usize % per_block) * 4;
        self.pool.read(block, Region::Leaves, |b| {
            u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
        })
    }

    /// Full structural integrity check of the on-disk image. Verifies, for
    /// every reachable node:
    ///
    /// * child pointers stay in range (internal indices < `num_internal`,
    ///   leaf positions < `text_len`);
    /// * internal-sibling runs terminate with a `last_sibling` flag before
    ///   running off the record array;
    /// * leaf sibling chains are acyclic and in range;
    /// * depths strictly increase parent → child;
    /// * witnesses are in range and every arc is non-empty;
    /// * every non-root internal node branches (the compactness property);
    /// * every non-terminator text position is reachable as exactly one
    ///   leaf.
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_leaf = vec![false; self.text_len as usize];
        let mut stack = vec![(self.root(), 0u32)];
        let mut kids = Vec::new();
        let mut visited_internal = 0u64;
        while let Some((h, parent_depth)) = stack.pop() {
            let idx = h.index();
            if h.is_leaf() {
                if idx >= self.text_len {
                    return Err(format!("leaf position {idx} out of range"));
                }
                if seen_leaf[idx as usize] {
                    return Err(format!("leaf {idx} reachable twice"));
                }
                seen_leaf[idx as usize] = true;
                let depth = self.suffix_len(idx);
                if depth <= parent_depth {
                    return Err(format!(
                        "leaf {idx}: depth {depth} <= parent depth {parent_depth}"
                    ));
                }
                continue;
            }
            if idx >= self.num_internal {
                return Err(format!("internal index {idx} out of range"));
            }
            visited_internal += 1;
            if visited_internal > self.num_internal as u64 {
                return Err("internal nodes reachable more than once (cycle?)".to_string());
            }
            let rec = self.internal_rec(idx);
            if rec.depth <= parent_depth && idx != 0 {
                return Err(format!(
                    "node {idx}: depth {} <= parent depth {parent_depth}",
                    rec.depth
                ));
            }
            if rec.witness >= self.text_len {
                return Err(format!("node {idx}: witness {} out of range", rec.witness));
            }
            if rec.witness + rec.depth > self.text_len {
                return Err(format!("node {idx}: path overruns the text"));
            }
            // Walk children with explicit bounds on both sibling encodings.
            if rec.first_internal_child != NONE {
                let mut child = rec.first_internal_child;
                loop {
                    if child >= self.num_internal {
                        return Err(format!("node {idx}: internal child {child} out of range"));
                    }
                    if self.internal_rec(child).last_sibling {
                        break;
                    }
                    child += 1;
                }
            }
            let mut pos = rec.first_leaf_child;
            let mut chain = 0u32;
            while pos != NONE {
                if pos >= self.text_len {
                    return Err(format!("node {idx}: leaf child {pos} out of range"));
                }
                chain += 1;
                if chain > self.text_len {
                    return Err(format!("node {idx}: leaf sibling chain cycles"));
                }
                pos = self.leaf_rsib(pos);
            }
            self.children_into(h, &mut kids);
            if idx != 0 && kids.len() < 2 {
                return Err(format!(
                    "node {idx}: only {} children (not compact)",
                    kids.len()
                ));
            }
            for &c in &kids {
                stack.push((c, rec.depth));
            }
        }
        // Every residue position must be a reachable leaf; terminator
        // positions must not be.
        for (pos, &seen) in seen_leaf.iter().enumerate() {
            let is_term = self
                .seq_starts
                .iter()
                .skip(1)
                .any(|&s| s > 0 && (s - 1) as usize == pos);
            if is_term && seen {
                return Err(format!("terminator position {pos} appears as a leaf"));
            }
            if !is_term && !seen {
                return Err(format!("residue position {pos} has no leaf"));
            }
        }
        Ok(())
    }
}

impl<D: BlockDevice> SuffixTreeAccess for DiskSuffixTree<D> {
    fn root(&self) -> NodeHandle {
        NodeHandle::internal(0)
    }

    fn text_len(&self) -> u32 {
        self.text_len
    }

    fn num_internal(&self) -> u32 {
        self.num_internal
    }

    fn depth(&self, h: NodeHandle) -> u32 {
        if h.is_leaf() {
            self.suffix_len(h.index())
        } else {
            self.internal_rec(h.index()).depth
        }
    }

    fn children_into(&self, h: NodeHandle, out: &mut Vec<NodeHandle>) {
        assert!(!h.is_leaf(), "leaves have no children");
        out.clear();
        let rec = self.internal_rec(h.index());
        // Internal children are contiguous in BFS order; walk until the
        // last-sibling flag.
        if rec.first_internal_child != NONE {
            let mut idx = rec.first_internal_child;
            loop {
                let child = self.internal_rec(idx);
                out.push(NodeHandle::internal(idx));
                if child.last_sibling {
                    break;
                }
                idx += 1;
            }
        }
        // Leaf children are chained through explicit right-sibling pointers.
        let mut pos = rec.first_leaf_child;
        while pos != NONE {
            out.push(NodeHandle::leaf(pos));
            pos = self.leaf_rsib(pos);
        }
    }

    fn arc_fill(&self, parent_depth: u32, h: NodeHandle, offset: u32, out: &mut [u8]) -> usize {
        let (witness, depth) = if h.is_leaf() {
            (h.index(), self.suffix_len(h.index()))
        } else {
            let rec = self.internal_rec(h.index());
            (rec.witness, rec.depth)
        };
        let start = witness + parent_depth + offset;
        let end = witness + depth;
        if start >= end {
            return 0;
        }
        // Serve up to one block per call; the trait allows short fills.
        let bs = self.block_size as u64;
        let abs = self.symbols_start * bs + start as u64;
        let block = abs / bs;
        let in_block = (abs % bs) as usize;
        let take = (out.len())
            .min((end - start) as usize)
            .min(self.block_size - in_block);
        self.pool.read(block, Region::Symbols, |b| {
            out[..take].copy_from_slice(&b[in_block..in_block + take]);
        });
        take
    }

    fn leaves_under(&self, h: NodeHandle, visit: &mut dyn FnMut(u32)) {
        if h.is_leaf() {
            visit(h.index());
            return;
        }
        let mut stack = vec![h];
        let mut kids = Vec::new();
        while let Some(node) = stack.pop() {
            self.children_into(node, &mut kids);
            for &c in &kids {
                if c.is_leaf() {
                    visit(c.index());
                } else {
                    stack.push(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, SequenceDatabase};
    use oasis_suffix::{find_exact, occurrences};

    fn db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn disk_tree(
        d: &SequenceDatabase,
        block_size: usize,
        pool_bytes: usize,
    ) -> DiskSuffixTree<MemDevice> {
        let tree = SuffixTree::build(d);
        let (image, _) = DiskTreeBuilder::with_block_size(block_size).build_image(&tree);
        DiskSuffixTree::open_image(image, block_size, pool_bytes).unwrap()
    }

    /// Compare the disk tree against the memory tree node by node.
    fn assert_equivalent<D: BlockDevice>(mem: &SuffixTree, disk: &DiskSuffixTree<D>) {
        assert_eq!(mem.text_len(), disk.text_len());
        assert_eq!(
            <SuffixTree as SuffixTreeAccess>::num_internal(mem),
            disk.num_internal()
        );
        // Walk both trees simultaneously from the root, matching children by
        // their first arc symbol + depth (child order may differ).
        let mut stack = vec![(mem.root(), disk.root(), 0u32)];
        let mut mk = Vec::new();
        let mut dk = Vec::new();
        while let Some((mh, dh, pdepth)) = stack.pop() {
            assert_eq!(mem.depth(mh), disk.depth(dh));
            assert_eq!(
                mem.collect_leaves(mh),
                disk.collect_leaves(dh),
                "leaf sets differ"
            );
            if mh.is_leaf() {
                assert!(dh.is_leaf());
                continue;
            }
            let depth = mem.depth(mh);
            mem.children_into(mh, &mut mk);
            disk.children_into(dh, &mut dk);
            assert_eq!(mk.len(), dk.len(), "child counts at depth {depth}");
            // Match by arc label.
            let label = |t: &dyn Fn(u32, &mut [u8]) -> usize, _h: NodeHandle| -> Vec<u8> {
                let mut out = vec![0u8; 1];
                let got = t(0, &mut out);
                out.truncate(got);
                out
            };
            let _ = label;
            let mut dpairs: Vec<(Vec<u8>, NodeHandle)> =
                dk.iter().map(|&c| (disk.arc_label(depth, c), c)).collect();
            for &mc in mk.iter() {
                let ml = mem.arc_label(depth, mc);
                let pos = dpairs
                    .iter()
                    .position(|(dl, _)| *dl == ml)
                    .unwrap_or_else(|| panic!("no disk child with label {ml:?}"));
                let (_, dc) = dpairs.swap_remove(pos);
                stack.push((mc, dc, depth));
            }
            let _ = pdepth;
        }
    }

    #[test]
    fn roundtrip_paper_example() {
        let d = db(&["AGTACGCCTAG"]);
        let mem = SuffixTree::build(&d);
        let (image, stats) = DiskTreeBuilder::with_block_size(64).build_image(&mem);
        assert_eq!(stats.residues, 11);
        assert!(stats.total_bytes > 0);
        let disk = DiskSuffixTree::open_image(image, 64, 1 << 20).unwrap();
        assert_equivalent(&mem, &disk);
    }

    #[test]
    fn roundtrip_multi_sequence() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA", "TTTT", "ACACACAC", "G"]);
        let mem = SuffixTree::build(&d);
        for bs in [64usize, 128, 2048] {
            let (image, _) = DiskTreeBuilder::with_block_size(bs).build_image(&mem);
            let disk = DiskSuffixTree::open_image(image, bs, 1 << 20).unwrap();
            assert_equivalent(&mem, &disk);
        }
    }

    #[test]
    fn exact_search_identical_on_disk_tree() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA", "ACACACAC"]);
        let mem = SuffixTree::build(&d);
        let disk = disk_tree(&d, 64, 1 << 20);
        let alpha = Alphabet::dna();
        for q in ["A", "AC", "ACG", "GTAC", "CAGT", "TTTT", "ACACAC", "GGGG"] {
            let query = alpha.encode_str(q).unwrap();
            assert_eq!(
                occurrences(&mem, &query),
                occurrences(&disk, &query),
                "query {q}"
            );
        }
        assert!(find_exact(&disk, &alpha.encode_str("ACGTACGTTGCAGT").unwrap()).is_some());
    }

    #[test]
    fn tiny_pool_still_correct() {
        // One frame: every access thrashes, results must not change.
        let d = db(&["ACGTACGTTGCAGT", "GTACCA"]);
        let mem = SuffixTree::build(&d);
        let disk = disk_tree(&d, 64, 1); // with_bytes(1) → 1 frame
        assert_equivalent(&mem, &disk);
        let s = disk.pool().stats();
        assert!(s.total().misses() > 0, "tiny pool must miss");
    }

    #[test]
    fn pool_stats_tagged_by_region() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA"]);
        let disk = disk_tree(&d, 64, 1 << 20);
        let before = disk.pool().stats();
        let alpha = Alphabet::dna();
        occurrences(&disk, &alpha.encode_str("ACGT").unwrap());
        let s = disk.pool().stats().since(&before);
        assert!(s.region(Region::Internal).requests > 0);
        assert!(s.region(Region::Symbols).requests > 0);
        assert!(s.region(Region::Leaves).requests > 0);
    }

    #[test]
    fn bytes_per_symbol_reported() {
        let seq = "ACGTACGTTGCAGTACCACCAGATTACA".repeat(20);
        let d = db(&[&seq]);
        let mem = SuffixTree::build(&d);
        let (_, stats) = DiskTreeBuilder::default().build_image(&mem);
        let bps = stats.bytes_per_symbol();
        // text(1) + leaves(4) + internals(~16 * ~0.7) ≈ 10-25 B/symbol,
        // comparable to the paper's 12.5.
        assert!(bps > 4.0 && bps < 40.0, "bytes/symbol = {bps}");
    }

    #[test]
    fn open_rejects_garbage() {
        let err = DiskSuffixTree::open_image(vec![0u8; 256], 64, 1024).unwrap_err();
        assert_eq!(err, LayoutError::BadMagic);
    }

    #[test]
    fn open_rejects_wrong_block_size() {
        let d = db(&["ACGT"]);
        let mem = SuffixTree::build(&d);
        let (image, _) = DiskTreeBuilder::with_block_size(64).build_image(&mem);
        let err = DiskSuffixTree::open_image(image, 128, 1024).unwrap_err();
        assert!(matches!(err, LayoutError::BlockSizeMismatch { .. }));
    }

    #[test]
    fn open_rejects_truncated() {
        let d = db(&["ACGTACGT"]);
        let mem = SuffixTree::build(&d);
        let (mut image, _) = DiskTreeBuilder::with_block_size(64).build_image(&mem);
        image.truncate(64); // header only
        let err = DiskSuffixTree::open_image(image, 64, 1024).unwrap_err();
        assert_eq!(err, LayoutError::Truncated);
    }

    #[test]
    fn file_roundtrip() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA"]);
        let mem = SuffixTree::build(&d);
        let dir = std::env::temp_dir().join(format!("oasis-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.oasis");
        DiskTreeBuilder::with_block_size(64)
            .write_file(&mem, &path)
            .unwrap();
        let dev = crate::device::FileDevice::open(&path, 64).unwrap();
        let disk = DiskSuffixTree::open(dev, 1 << 20).unwrap();
        assert_equivalent(&mem, &disk);
        std::fs::remove_file(&path).ok();
    }
}
